#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "harness/invariants.hpp"
#include "harness/multirack.hpp"
#include "harness/report.hpp"
#include "host/client.hpp"
#include "host/server.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "kv/kv_workload.hpp"
#include "kv/store.hpp"

namespace netclone::benchmark {

namespace {

constexpr SimTime kWarmup = SimTime::milliseconds(2);
constexpr SimTime kDrain = SimTime::milliseconds(10);
constexpr std::size_t kKvObjects = 1000000;

/// §5.1.2 high variability: 1% of executions run 15x slower, plus the
/// figure benches' 8% per-execution microvariation.
constexpr host::JitterModel kHighVariability{0.01, 15.0, 0.08};
/// Fig. 14's low variability (0.1%), for the KV workload: with 1% of its
/// 105 us SCANs stretched to 1.6 ms its tail swings 20-26% between seeds.
constexpr host::JitterModel kLowVariability{0.001, 15.0, 0.08};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

SimTime window(double ms, double scale) {
  return SimTime::milliseconds(ms * scale);
}

double capacity_rps(const std::vector<std::uint32_t>& workers,
                    double mean_intrinsic_us,
                    const host::JitterModel& jitter = kHighVariability) {
  return harness::cluster_capacity_rps(
      workers, mean_intrinsic_us * jitter.mean_inflation());
}

std::shared_ptr<host::RequestFactory> decorate(
    std::shared_ptr<host::RequestFactory> factory, SpanRecorder* recorder) {
  if (recorder == nullptr) {
    return factory;
  }
  return std::make_shared<TimedFactory>(std::move(factory), *recorder);
}

std::shared_ptr<host::ServiceModel> decorate(
    std::shared_ptr<host::ServiceModel> service, SpanRecorder* recorder) {
  if (recorder == nullptr) {
    return service;
  }
  return std::make_shared<TimedService>(std::move(service), *recorder);
}

void begin_phase(SpanRecorder* recorder, const char* name) {
  if (recorder != nullptr) {
    recorder->begin_phase(name);
  }
}

void end_phase(SpanRecorder* recorder) {
  if (recorder != nullptr) {
    recorder->end_phase();
  }
}

// -- reading a finished experiment ------------------------------------------

template <typename Exp>
std::uint64_t pool_acquires(const Exp& exp) {
  std::uint64_t acquired = 0;
  for (const wire::FramePool::Stats& s : exp.frame_pool_stats()) {
    acquired += s.acquired;
  }
  return acquired;
}

template <typename Exp>
void add_host_and_link_counts(const Exp& exp, RepOut& out) {
  LayerCounts& c = out.counts;
  c.events += exp.executed_events();
  for (const auto& [name, link] : exp.links()) {
    const phys::LinkStats& s = link->stats();
    c.link_frames += s.tx_frames;
    c.link_drops += s.dropped_frames + s.impaired_drops + s.flushed_frames;
  }
  for (const host::Client* client : exp.clients()) {
    c.requests_sent += client->stats().requests_sent;
    c.client_completed += client->stats().completed;
    const host::Client::Audit audit = client->audit();
    const std::uint64_t entries =
        audit.completed_entries + audit.incomplete_entries;
    c.client_table_entries += entries;
    out.issued += entries;
    out.incomplete += audit.incomplete_entries;
  }
  for (const host::Server* server : exp.servers()) {
    c.server_rx_requests += server->stats().rx_requests;
    c.server_executions += server->stats().completed;
    c.server_responses += server->stats().responses_total;
  }
}

void add_switch_counts(const harness::Experiment& exp, LayerCounts& c) {
  c.switch_passes += exp.tor().stats().rx_frames;
  c.recirculated += exp.tor().stats().recirculated;
  if (const core::NetCloneProgram* program = exp.netclone_program()) {
    c.cloned += program->stats().cloned_requests;
    c.write_requests += program->stats().write_requests;
    c.filtered += program->stats().filtered_responses;
  }
}

void add_switch_counts(const harness::MultiRackExperiment& exp,
                       LayerCounts& c) {
  for (const auto& [name, device] : exp.switches()) {
    c.switch_passes += device->stats().rx_frames;
    c.recirculated += device->stats().recirculated;
  }
  for (std::size_t agg = 0; agg < exp.num_aggs(); ++agg) {
    const core::AggNetCloneStats& s = exp.agg_netclone_program(agg).stats();
    c.cloned += s.cloned_requests;
    c.write_requests += s.write_requests;
    c.filtered += s.filtered_responses;
    c.chain_forwards += s.chain_forwards;
  }
}

template <typename Exp>
void read_latency(const Exp& exp, const harness::ExperimentResult& result,
                  RepOut& out) {
  LatencyHistogram merged;
  for (const host::Client* client : exp.clients()) {
    merged.merge(client->stats().latency);
  }
  out.p50_us = interpolated_quantile_us(merged, 0.50);
  out.p99_us = interpolated_quantile_us(merged, 0.99);
  out.p999_us = interpolated_quantile_us(merged, 0.999);
  out.goodput_krps = result.achieved_rps / 1e3;
}

/// Reads a finished experiment's counts (and, at the reference point, its
/// latency) and audits it.
template <typename Exp>
void read_and_audit(const Exp& exp, const harness::ExperimentResult& result,
                    bool reference, SpanRecorder* recorder, RepOut& out) {
  add_host_and_link_counts(exp, out);
  add_switch_counts(exp, out.counts);
  if (reference) {
    read_latency(exp, result, out);
  }
  begin_phase(recorder, "audit");
  const auto start = Clock::now();
  const harness::InvariantReport report = harness::audit_invariants(exp);
  out.audit_s += seconds_since(start);
  end_phase(recorder);
  out.violations.insert(out.violations.end(), report.violations.begin(),
                        report.violations.end());
  ++out.audited_points;
}

/// Builds, runs, reads and audits one experiment. The setup phase (and
/// `setup_start`'s clock) is open on entry.
template <typename Exp, typename Config>
void run_single(Config cfg, double load_fraction, SpanRecorder* recorder,
                Clock::time_point setup_start, RepOut& out) {
  const auto build_start = Clock::now();
  Exp exp{std::move(cfg)};
  out.build_s = seconds_since(build_start);
  out.setup_s = seconds_since(setup_start);
  end_phase(recorder);

  begin_phase(recorder, "run");
  const std::uint64_t acquired_before = pool_acquires(exp);
  const auto run_start = Clock::now();
  const harness::ExperimentResult result = exp.run();
  out.wall_s = seconds_since(run_start);
  out.run_s = out.wall_s;
  end_phase(recorder);

  out.counts.pool_acquires += pool_acquires(exp) - acquired_before;
  read_and_audit(exp, result, /*reference=*/true, recorder, out);
  out.points.push_back(PointOut{load_fraction, result});
}

// -- the workloads ------------------------------------------------------------

harness::ClusterConfig rack_base(std::shared_ptr<host::RequestFactory> factory,
                                 std::shared_ptr<host::ServiceModel> service,
                                 const RepOptions& o) {
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.num_clients = 2;
  cfg.server_workers.assign(6, 16);
  cfg.warmup = kWarmup;
  cfg.drain = kDrain;
  cfg.seed = o.seed;
  cfg.factory = decorate(std::move(factory), o.recorder);
  cfg.service = decorate(std::move(service), o.recorder);
  return cfg;
}

void rack_exp25(const RepOptions& o, Clock::time_point start, RepOut& out) {
  harness::ClusterConfig cfg = rack_base(
      std::make_shared<host::ExponentialWorkload>(25.0),
      std::make_shared<host::SyntheticService>(kHighVariability), o);
  cfg.measure = window(400.0, o.scale);
  cfg.offered_rps = 0.8 * capacity_rps(cfg.server_workers, 25.0);
  run_single<harness::Experiment>(std::move(cfg), 0.8, o.recorder, start,
                                  out);
}

void kv_redis_rw(const RepOptions& o, Clock::time_point start, RepOut& out) {
  auto store = std::make_shared<kv::KvStore>(kKvObjects);
  const auto populate_start = Clock::now();
  kv::populate(*store, kKvObjects);
  out.populate_s = seconds_since(populate_start);

  kv::KvMix mix;
  mix.get_fraction = 0.90;
  mix.set_fraction = 0.05;  // SETs travel as WREQ: never cloned (§5.5)
  mix.scan_count = 100;
  mix.num_keys = kKvObjects;
  mix.zipf_theta = 0.99;
  const kv::KvCostProfile profile = kv::redis_profile();
  auto factory = std::make_shared<kv::KvRequestFactory>(mix, profile);
  const double mean_us = factory->mean_intrinsic_us();
  harness::ClusterConfig cfg = rack_base(
      std::move(factory),
      std::make_shared<kv::KvService>(store, profile, kLowVariability), o);
  cfg.server_workers.assign(6, 8);
  cfg.measure = window(250.0, o.scale);
  // 70%: at 80% the queueing behind SCANs swings the tail between seeds.
  cfg.offered_rps =
      0.7 * capacity_rps(cfg.server_workers, mean_us, kLowVariability);
  run_single<harness::Experiment>(std::move(cfg), 0.7, o.recorder, start,
                                  out);
}

void pod_replicated(const RepOptions& o, Clock::time_point start,
                    RepOut& out) {
  harness::MultiRackConfig cfg;
  cfg.server_racks = 3;
  cfg.servers_per_rack = 3;
  cfg.num_aggs = 2;
  cfg.agg_mode = harness::AggMode::kReplicated;
  cfg.workers = 16;
  cfg.num_clients = 4;
  cfg.warmup = kWarmup;
  cfg.measure = window(150.0, o.scale);
  cfg.drain = kDrain;
  cfg.seed = o.seed;
  cfg.factory =
      decorate(std::make_shared<host::ExponentialWorkload>(25.0), o.recorder);
  cfg.service = decorate(
      std::make_shared<host::SyntheticService>(kHighVariability), o.recorder);
  // TCP mode (§3.7): the tier's 32-bit client-tuple request ids now and
  // then match a stale filter entry (§3.5) and a response is wrongly
  // dropped; a retransmission re-derives the same id and completes it.
  cfg.client_template.retransmit_timeout = SimTime::milliseconds(2);
  // Uniform group choice: Zipf skew >= 0.3 overloads the top server here.
  cfg.offered_rps =
      0.7 * capacity_rps(std::vector<std::uint32_t>(9, cfg.workers), 25.0);
  run_single<harness::MultiRackExperiment>(std::move(cfg), 0.7, o.recorder,
                                           start, out);
}

/// Point `k` of harness::run_sweep(base, capacity, loads): the same load
/// and per-point seed derivation.
harness::ClusterConfig sweep_point(const harness::ClusterConfig& base,
                                   double capacity,
                                   const std::vector<double>& loads,
                                   std::size_t k) {
  harness::ClusterConfig cfg = base;
  cfg.offered_rps = capacity * loads[k];
  cfg.seed = base.seed + 1000 * (k + 1);
  return cfg;
}

bool same_outputs(const PointOut& a, const PointOut& b) {
  return result_digest({a}) == result_digest({b});
}

void sweep_bimodal(const RepOptions& o, Clock::time_point start,
                   RepOut& out) {
  auto factory = std::make_shared<host::BimodalWorkload>(0.9, 25.0, 250.0);
  const double mean_us = factory->mean_intrinsic_us();
  harness::ClusterConfig base = rack_base(
      std::move(factory),
      std::make_shared<host::SyntheticService>(kHighVariability), o);
  base.measure = window(100.0, o.scale);
  const double capacity = capacity_rps(base.server_workers, mean_us);
  const std::vector<double> loads = harness::default_load_points();
  // The reported point: load 0.7, the sweep's knee under the 350 us p99
  // SLO. Past it the tail swings too much between seeds to pin.
  const auto at = std::find_if(loads.begin(), loads.end(), [](double load) {
    return std::abs(load - 0.7) < 1e-9;
  });
  NETCLONE_CHECK(at != loads.end(), "the sweep has no 0.7 load point");
  const auto ref = static_cast<std::size_t>(at - loads.begin());

  if (o.recorder == nullptr) {
    // run_sweep owns and discards its experiments, so the reference point
    // is built once more up front (the set-up), re-run after the timed
    // sweep, checked against the sweep's result, and audited.
    const auto build_start = Clock::now();
    harness::Experiment probe{sweep_point(base, capacity, loads, ref)};
    out.build_s = seconds_since(build_start);
    out.setup_s = seconds_since(start);

    const auto run_start = Clock::now();
    const std::vector<harness::SweepPoint> sweep =
        harness::run_sweep(base, capacity, loads);
    out.wall_s = seconds_since(run_start);
    for (const harness::SweepPoint& p : sweep) {
      out.points.push_back(PointOut{p.load_fraction, p.result});
    }

    const harness::ExperimentResult rerun = probe.run();
    if (!same_outputs(PointOut{loads[ref], rerun}, out.points[ref])) {
      out.violations.push_back(
          "sweep: re-run of the reference point differs from run_sweep");
    }
    read_and_audit(probe, rerun, /*reference=*/true, nullptr, out);
    return;
  }

  // Traced: the same points driven one by one, so every experiment's
  // build, run and teardown is timed and every point is audited.
  end_phase(o.recorder);
  double teardown_s = 0.0;
  for (std::size_t k = 0; k < loads.size(); ++k) {
    o.recorder->begin_phase("setup");
    const auto build_start = Clock::now();
    auto exp = std::make_unique<harness::Experiment>(
        sweep_point(base, capacity, loads, k));
    const double build_s = seconds_since(build_start);
    out.build_s += build_s;
    o.recorder->end_phase();

    o.recorder->begin_phase("run");
    const std::uint64_t acquired_before = pool_acquires(*exp);
    const auto run_start = Clock::now();
    const harness::ExperimentResult result = exp->run();
    out.run_s += seconds_since(run_start);
    o.recorder->end_phase();

    out.counts.pool_acquires += pool_acquires(*exp) - acquired_before;
    read_and_audit(*exp, result, k == ref, o.recorder, out);
    if (k == ref) {
      out.setup_s = build_s;
    }
    out.points.push_back(PointOut{loads[k], result});

    const auto teardown_start = Clock::now();
    exp.reset();
    teardown_s += seconds_since(teardown_start);
  }
  out.wall_s = out.build_s + out.run_s + teardown_s;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::kRackExp25, Workload::kKvRedisRw, Workload::kPodReplicated,
        Workload::kSweepBimodal}) {
    if (name == workload_name(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kRackExp25:
      return "rack_exp25";
    case Workload::kKvRedisRw:
      return "kv_redis_rw";
    case Workload::kPodReplicated:
      return "pod_replicated";
    case Workload::kSweepBimodal:
      return "sweep_bimodal";
  }
  return "?";
}

RepOut run_rep(const RepOptions& options) {
  RepOut out;
  const auto start = Clock::now();
  begin_phase(options.recorder, "setup");
  switch (options.workload) {
    case Workload::kRackExp25:
      rack_exp25(options, start, out);
      break;
    case Workload::kKvRedisRw:
      kv_redis_rw(options, start, out);
      break;
    case Workload::kPodReplicated:
      pod_replicated(options, start, out);
      break;
    case Workload::kSweepBimodal:
      sweep_bimodal(options, start, out);
      break;
  }
  out.digest = result_digest(out.points);
  return out;
}

namespace {

/// How many samples percentile() reads as at most `value` ns: readings
/// rise with rank, so this is the last rank whose reading is <= value.
std::uint64_t ranks_reading_at_most(const LatencyHistogram& h,
                                    std::int64_t value) {
  const auto n = static_cast<double>(h.count());
  std::uint64_t lo = 0;
  std::uint64_t hi = h.count();
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (h.percentile((static_cast<double>(mid) - 0.5) / n).ns() <= value) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

}  // namespace

double interpolated_quantile_us(const LatencyHistogram& h, double q) {
  const std::int64_t value = h.percentile(q).ns();
  if (value < 128) {
    return static_cast<double>(value) / 1e3;  // one bucket per nanosecond
  }
  const auto rank = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(h.count()))),
      1);
  // The ranks that share the bucket: every lower bucket reads below it.
  const std::uint64_t first = ranks_reading_at_most(h, value - 1) + 1;
  const std::uint64_t last = ranks_reading_at_most(h, value);
  // 64 linear sub-buckets per octave: the bucket holding `value` starts at
  // its top 7 significant bits and spans 2^(bit_width - 7) ns.
  const auto v = static_cast<std::uint64_t>(value);
  const int shift = static_cast<int>(std::bit_width(v)) - 7;
  const double low_edge = static_cast<double>((v >> shift) << shift);
  const double width = std::ldexp(1.0, shift);
  const double position = (static_cast<double>(rank - first) + 0.5) /
                          static_cast<double>(last - first + 1);
  return (low_edge + position * width) / 1e3;
}

std::uint64_t result_digest(const std::vector<PointOut>& points) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const PointOut& p : points) {
    const harness::ExperimentResult& r = p.result;
    fold(r.completed);
    fold(static_cast<std::uint64_t>(r.p50.ns()));
    fold(static_cast<std::uint64_t>(r.p99.ns()));
    fold(static_cast<std::uint64_t>(r.p999.ns()));
    fold(r.requests_sent);
    fold(r.cloned_requests);
    fold(r.filtered_responses);
  }
  return h;
}

}  // namespace netclone::benchmark

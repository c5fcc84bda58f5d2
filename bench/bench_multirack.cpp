// Fat-tree pod point: a 3-server-rack NetClone pod with a replicated
// (NetClone-aware, chain-replicated) aggregation tier, wall-clocked best
// of 3. The three runs must be bit-identical, and the invariant auditor
// (including the replica-convergence check) must pass on each. A
// chain fail-over timeline on the same pod follows: the tail replica is
// killed and rejoined mid-run, and the bench reports how fast throughput
// recovers.
//
// Results land in BENCH_multirack.json: the pod's simulated results, its
// work counts (requests sent, events, frames, pool acquires, pipeline
// passes, recirculations, clones, filtered responses) and the fail-over
// digest are exact (machine-independent), the wall clock is informational.
//
// Usage: bench_multirack [output.json]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "harness/faults.hpp"
#include "harness/invariants.hpp"
#include "harness/multirack.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

using namespace netclone;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The measured pod: 3 racks x 3 servers behind 2 chain-replicated aggs,
/// Exp(25) high-variability service at 80% load, 4 clients so the
/// source-hashed ECMP spray exercises both replicas.
harness::MultiRackConfig pod_config() {
  harness::MultiRackConfig cfg;
  cfg.server_racks = 3;
  cfg.servers_per_rack = 3;
  cfg.num_aggs = 2;
  cfg.agg_mode = harness::AggMode::kReplicated;
  cfg.workers = 16;
  cfg.num_clients = 4;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(bench::high_variability());
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(20);
  cfg.drain = SimTime::milliseconds(10);
  cfg.seed = 23;
  const double capacity = harness::cluster_capacity_rps(
      std::vector<std::uint32_t>(9, cfg.workers),
      25.0 * bench::high_variability().mean_inflation());
  cfg.offered_rps = 0.8 * capacity;
  return cfg;
}

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t completed = 0;
  std::int64_t p99_ns = 0;
  std::uint64_t digest = 0;
  bench::WorkCounts work{};
};

RunResult run_point() {
  harness::MultiRackExperiment experiment{pod_config()};
  const auto start = std::chrono::steady_clock::now();
  const harness::ExperimentResult result = experiment.run();
  RunResult out;
  out.wall_s = seconds_since(start);

  const harness::InvariantReport report =
      harness::audit_invariants(experiment);
  NETCLONE_CHECK(report.ok(), "invariant violations:\n" + report.to_string());
  out.completed = result.completed;
  out.p99_ns = result.p99.ns();
  out.digest = harness::chaos_digest(experiment);
  out.work = bench::work_counts(experiment);
  NETCLONE_CHECK(out.work.cloned == result.cloned_requests,
                 "only the aggregation replicas clone in this pod");
  return out;
}

RunResult best_of_3() {
  RunResult best = run_point();
  for (int i = 0; i < 2; ++i) {
    const RunResult run = run_point();
    NETCLONE_CHECK(run.digest == best.digest && run.work == best.work,
                   "same-config repeat runs diverged");
    if (run.wall_s < best.wall_s) {
      best = run;
    }
  }
  return best;
}

// -- chain fail-over recovery (bench_fig16-style, for the pod) -------------

constexpr double kFailoverBinUs = 500.0;
constexpr std::size_t kFailBin = 20;    // agg_fail at 10 ms
constexpr std::size_t kRejoinBin = 28;  // agg_rejoin at 14 ms

/// The measured pod with the tail replica (agg1) killed mid-run and
/// readmitted 4 ms later. Retransmission is armed so the losses a crash
/// inflicts (sprayed requests, in-flight responses) are absorbed.
harness::MultiRackConfig failover_config() {
  harness::MultiRackConfig cfg = pod_config();
  cfg.client_template.retransmit_timeout = SimTime::microseconds(400.0);
  cfg.client_template.max_retransmits = 6;
  cfg.faults = harness::parse_fault_plan(
      "at=10ms agg_fail agg1\n"
      "at=14ms agg_rejoin agg1\n",
      "bench_multirack");
  return cfg;
}

struct FailoverResult {
  std::vector<std::uint64_t> bins;
  std::uint64_t digest = 0;
  double recovery_us = -1.0;
};

FailoverResult run_failover() {
  harness::MultiRackExperiment experiment{failover_config()};
  FailoverResult out;
  out.bins = experiment.run_timeline(
      SimTime::milliseconds(32), SimTime::microseconds(kFailoverBinUs));

  const harness::InvariantReport report =
      harness::audit_invariants(experiment);
  NETCLONE_CHECK(report.ok(),
                 "fail-over run violated invariants:\n" + report.to_string());
  const harness::ChainController* ctrl = experiment.chain_controller();
  NETCLONE_CHECK(ctrl != nullptr && ctrl->quiescent() &&
                     ctrl->admitted_members().size() == 2,
                 "agg1 never completed its rejoin");

  // Recovery: microseconds from the crash until a bin regains 90% of the
  // pre-failure average (the chain splices around the corpse in-band, so
  // this is orders of magnitude below a switch reboot).
  double pre_fail = 0.0;
  for (std::size_t i = kFailBin - 8; i < kFailBin; ++i) {
    pre_fail += static_cast<double>(out.bins[i]);
  }
  pre_fail /= 8.0;
  for (std::size_t i = kFailBin; i < out.bins.size(); ++i) {
    if (static_cast<double>(out.bins[i]) >= 0.9 * pre_fail) {
      out.recovery_us =
          static_cast<double>(i + 1 - kFailBin) * kFailoverBinUs;
      break;
    }
  }
  NETCLONE_CHECK(out.recovery_us >= 0.0,
                 "throughput never regained 90% after the fail-over");
  out.digest = harness::chaos_digest(experiment);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_multirack.json";

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("multirack bench: 3 racks x 3 servers, replicated agg tier, "
              "%u hw threads, best of 3\n\n",
              hw_threads);

  const RunResult pod = best_of_3();
  NETCLONE_CHECK(pod.work.cloned > 0,
                 "replicated aggregation tier cloned nothing");

  // Fail-over recovery: the timeline is simulated, so the digest and the
  // recovery time are machine-independent.
  const FailoverResult failover = run_failover();
  std::printf("fail-over (agg1 down at bin %zu, back at bin %zu, "
              "%.0f us bins):\n",
              kFailBin, kRejoinBin, kFailoverBinUs);
  std::printf("  recovered to 90%% of pre-crash throughput in %.0f us\n",
              failover.recovery_us);

  std::printf("pod point (%llu completed, p99 %lld ns):\n",
              static_cast<unsigned long long>(pod.completed),
              static_cast<long long>(pod.p99_ns));
  std::printf("  %8.3f s wall\n\n", pod.wall_s);

  std::ofstream out{out_path};
  out << "{\n"
      << "  \"bench\": \"multirack\",\n"
      << "  \"unit\": \"seconds\",\n"
      << "  \"hw_threads\": " << hw_threads << ",\n"
      << "  \"multirack_completed\": " << pod.completed << ",\n"
      << "  \"multirack_p99_ns\": " << pod.p99_ns << ",\n"
      << "  \"multirack_digest\": " << pod.digest << ",\n";
  bench::write_work_counts(out, "multirack", pod.work, "cloned_requests");
  out << "  \"multirack_failover_digest\": " << failover.digest << ",\n"
      << "  \"multirack_failover_recovery_us\": " << failover.recovery_us
      << ",\n"
      << "  \"multirack_wall_seconds\": " << pod.wall_s << "\n"
      << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

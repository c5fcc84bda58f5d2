// Shared configuration builders for the figure-reproduction benches.
//
// Every bench binary prints (a) the series the paper's figure plots and
// (b) a SHAPE-CHECK block comparing the qualitative relationships the paper
// reports. Durations scale with NETCLONE_BENCH_SCALE (default 1.0).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string_view>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/testbed.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

namespace netclone::bench {

/// The paper's high-variability jitter model (§5.1.2), plus an 8%
/// per-execution microvariation representing the small ever-present
/// variance sources of §2.1 (interrupts, scheduling, caches).
inline host::JitterModel high_variability() { return {0.01, 15.0, 0.08}; }
/// The low-variability variant used by Fig. 14.
inline host::JitterModel low_variability() { return {0.001, 15.0, 0.08}; }

/// Default synthetic cluster: 2 clients, 6 workers x 16 threads.
inline harness::ClusterConfig synthetic_cluster(
    std::shared_ptr<host::RequestFactory> factory, host::JitterModel jitter,
    std::size_t num_servers = 6, std::uint32_t workers = 16) {
  harness::ClusterConfig cfg;
  cfg.server_workers.assign(num_servers, workers);
  cfg.factory = std::move(factory);
  cfg.service = std::make_shared<host::SyntheticService>(jitter);
  cfg.warmup = harness::scaled(SimTime::milliseconds(5));
  cfg.measure = harness::scaled(SimTime::milliseconds(25));
  cfg.drain = harness::scaled(SimTime::milliseconds(15));
  return cfg;
}

/// Cluster capacity for a synthetic workload with jitter inflation.
inline double synthetic_capacity(const harness::ClusterConfig& cfg,
                                 double mean_us,
                                 host::JitterModel jitter) {
  return harness::cluster_capacity_rps(cfg.server_workers,
                                       mean_us * jitter.mean_inflation());
}

/// The Fig. 7 point bench_packet_path times end to end: NetClone, Exp(25)
/// with high variability, 80% load, and a fixed 2 + 20 + 10 ms window that
/// NETCLONE_BENCH_SCALE does not scale, so the completions, p99 and work
/// counts the bench gate pins hold at any scale.
inline harness::ClusterConfig fig7_point() {
  harness::ClusterConfig cfg = synthetic_cluster(
      std::make_shared<host::ExponentialWorkload>(25.0), high_variability());
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(20);
  cfg.drain = SimTime::milliseconds(10);
  cfg.offered_rps = 0.8 * synthetic_capacity(cfg, 25.0, high_variability());
  return cfg;
}

/// The work one run did, as totals over its testbed's registries. The
/// simulator is deterministic, so each count is exact on any machine, and
/// a change that adds work to every request moves at least one of them.
struct WorkCounts {
  std::uint64_t requests_sent = 0;    // by the clients, retransmits apart
  std::uint64_t executed_events = 0;  // by the event engine
  std::uint64_t frames = 0;           // sent on links, both directions
  std::uint64_t pool_acquires = 0;    // buffers taken from the frame pool
  std::uint64_t passes = 0;           // switch pipeline passes
  std::uint64_t recirculated = 0;     // passes that sent a copy round again
  std::uint64_t cloned = 0;           // requests a NetClone program cloned
  std::uint64_t filtered = 0;         // slower responses it dropped

  bool operator==(const WorkCounts&) const = default;
};

inline WorkCounts work_counts(const harness::Testbed& testbed) {
  WorkCounts w;
  for (const host::Client* client : testbed.clients()) {
    w.requests_sent += client->stats().requests_sent;
  }
  w.executed_events = testbed.executed_events();
  for (const auto& [name, link] : testbed.links()) {
    w.frames += link->stats().tx_frames;
  }
  for (const wire::FramePool::Stats& pool : testbed.frame_pool_stats()) {
    w.pool_acquires += pool.acquired;
  }
  for (const auto& [name, device] : testbed.switches()) {
    w.passes += device->stats().rx_frames;
    w.recirculated += device->stats().recirculated;
  }
  for (const auto& [name, program] : testbed.netclone_programs()) {
    w.cloned += program->stats().cloned_requests;
    w.filtered += program->stats().filtered_responses;
  }
  return w;
}

/// Writes `w` as BENCH JSON members `"<point>_<key>": <total>,`, one a
/// line, and prints each count per request sent. The keys carry the layer
/// prefixes of benchmark/'s traced rows; the clone count's key is
/// `cloned_key`, so a point that pinned it under an older name keeps it.
inline void write_work_counts(std::ostream& json, std::string_view point,
                              const WorkCounts& w,
                              std::string_view cloned_key) {
  const struct {
    std::string_view key;
    std::uint64_t total;
  } rows[] = {
      {"requests_sent", w.requests_sent},
      {"executed_events", w.executed_events},
      {"phys.frames", w.frames},
      {"wire.pool_acquires", w.pool_acquires},
      {"pisa.passes", w.passes},
      {"pisa.recirculated", w.recirculated},
      {cloned_key, w.cloned},
      {"core.filtered", w.filtered},
  };
  std::printf("%.*s work per request sent:\n",
              static_cast<int>(point.size()), point.data());
  for (const auto& row : rows) {
    json << "  \"" << point << '_' << row.key << "\": " << row.total
         << ",\n";
    std::printf("  %-20.*s %10llu  %6.2f\n", static_cast<int>(row.key.size()),
                row.key.data(), static_cast<unsigned long long>(row.total),
                w.requests_sent > 0 ? static_cast<double>(row.total) /
                                          static_cast<double>(w.requests_sent)
                                    : 0.0);
  }
}

/// Longer measurement for long-RPC workloads so tails keep enough samples.
inline void stretch_for_long_rpcs(harness::ClusterConfig& cfg,
                                  double factor) {
  cfg.warmup = SimTime::nanoseconds(
      static_cast<std::int64_t>(static_cast<double>(cfg.warmup.ns()) *
                                factor));
  cfg.measure = SimTime::nanoseconds(
      static_cast<std::int64_t>(static_cast<double>(cfg.measure.ns()) *
                                factor));
  cfg.drain = SimTime::nanoseconds(
      static_cast<std::int64_t>(static_cast<double>(cfg.drain.ns()) *
                                factor));
}

}  // namespace netclone::bench

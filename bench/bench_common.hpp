// Shared configuration builders for the figure-reproduction benches.
//
// Every bench binary prints (a) the series the paper's figure plots and
// (b) a SHAPE-CHECK block comparing the qualitative relationships the paper
// reports. Durations scale with NETCLONE_BENCH_SCALE (default 1.0).
#pragma once

#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
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

/// The Fig. 7 point bench_packet_path and bench_pisa_pipeline time end
/// to end: NetClone, Exp(25) with high variability, 80% load, and a fixed
/// 2 + 20 + 10 ms window that NETCLONE_BENCH_SCALE does not scale, so the
/// completions, p99 and event count the bench gate pins hold at any
/// scale.
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

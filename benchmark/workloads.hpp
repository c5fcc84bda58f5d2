// The benchmark's four workloads and the rep that runs one of them.
//
// Every workload is open-loop Poisson in simulated time, seeded by the
// rep's seed, with a 2 ms warmup and a 10 ms drain. See README.md for why
// each exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "harness/experiment.hpp"
#include "tracing.hpp"

namespace netclone::benchmark {

enum class Workload {
  kRackExp25,      // Fig. 7 point: one ToR, Exp(25), 80% load
  kKvRedisRw,      // Redis GET/SCAN/SET over 1M Zipf-0.99 objects
  kPodReplicated,  // 3-rack pod, chain-replicated NetClone aggs
  kSweepBimodal,   // harness::run_sweep, Bimodal(90%·25, 10%·250)
};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

/// Exact per-layer work of a run, read from public stats afterwards.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t requests_sent = 0;     // client requests issued
  std::uint64_t link_frames = 0;       // frames accepted by links
  std::uint64_t link_drops = 0;        // drop-tail, impaired, flushed
  std::uint64_t pool_acquires = 0;     // frame buffers acquired in run()
  std::uint64_t switch_passes = 0;     // ingress passes, all switches
  std::uint64_t recirculated = 0;      // clone recirculations
  std::uint64_t cloned = 0;            // requests the program cloned
  std::uint64_t write_requests = 0;    // WREQs forwarded uncloned
  std::uint64_t filtered = 0;          // duplicate responses dropped
  std::uint64_t chain_forwards = 0;    // responses relayed down the chain
  std::uint64_t server_rx_requests = 0;
  std::uint64_t server_executions = 0;
  std::uint64_t server_responses = 0;
  std::uint64_t client_completed = 0;
  std::uint64_t client_table_entries = 0;
};

struct PointOut {
  double load_fraction = 0.0;
  harness::ExperimentResult result;
};

struct RepOut {
  std::vector<PointOut> points;
  /// Latency at the reference point (the one point; the sweep's 0.7
  /// load), read from the merged client histograms with linear
  /// interpolation inside the bucket, and the goodput there.
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double goodput_krps = 0.0;

  double setup_s = 0.0;     // inputs, KV populate, experiment construction
  double wall_s = 0.0;      // inside run() / run_sweep()
  double audit_s = 0.0;     // audit_invariants
  double populate_s = 0.0;  // KV store fill (kv_redis_rw only)
  double build_s = 0.0;     // experiment constructions (traced rep)
  double run_s = 0.0;       // run() calls alone, without builds (traced)

  /// Client request-table audit of every experiment the rep audited.
  std::uint64_t issued = 0;
  std::uint64_t incomplete = 0;
  std::vector<std::string> violations;
  std::uint64_t digest = 0;
  LayerCounts counts;
  std::size_t audited_points = 0;
};

struct RepOptions {
  Workload workload = Workload::kRackExp25;
  std::uint64_t seed = 1;
  /// Multiplier on the measurement window (smoke runs use 0.05).
  double scale = 1.0;
  /// Traced rep: decorate the factory and service, and bracket phases.
  SpanRecorder* recorder = nullptr;
};

[[nodiscard]] RepOut run_rep(const RepOptions& options);

/// The q-quantile of `h` in µs, interpolated linearly inside the
/// log-linear bucket that holds it. percentile() reports the bucket
/// midpoint, which reads the same for most seeds: kv_redis_rw's and
/// pod_replicated's p50 fall in one 1.1% bucket for all of ten seeds.
[[nodiscard]] double interpolated_quantile_us(const LatencyHistogram& h,
                                              double q);

/// FNV-1a over every point's simulated outputs: completed, p50/p99/p999,
/// requests sent, cloned, filtered.
[[nodiscard]] std::uint64_t result_digest(const std::vector<PointOut>& points);

}  // namespace netclone::benchmark

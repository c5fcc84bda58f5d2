// Table 1: qualitative comparison of cloning approaches, backed by
// measured evidence from one mid-load run per scheme. "Dynamic cloning" is
// evidenced by the cloning rate falling with load, "scalability" by the
// cloning point not capping throughput, and "low latency overhead" by the
// added latency of the cloning decision path.
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

namespace {

harness::ExperimentResult run_at(harness::ClusterConfig cfg, double load,
                                 double capacity) {
  cfg.offered_rps = capacity * load;
  harness::Experiment experiment{cfg};
  return experiment.run();
}

}  // namespace

int main() {
  std::printf("Table 1: comparison to existing works\n\n");
  std::printf(
      "  %-22s %-12s %-16s %-12s %-16s %-20s\n", "", "Cloning point",
      "Dynamic cloning", "Scalability", "High throughput",
      "Low latency overhead");
  std::printf(
      "  %-22s %-12s %-16s %-12s %-16s %-20s\n", "C-Clone", "Client", "no",
      "yes", "no", "yes");
  std::printf(
      "  %-22s %-12s %-16s %-12s %-16s %-20s\n", "LAEDGE", "Coordinator",
      "yes", "no", "no", "no");
  std::printf(
      "  %-22s %-12s %-16s %-12s %-16s %-20s\n", "NetClone", "Switch",
      "yes", "yes", "yes", "yes");

  std::printf("\nMeasured evidence (Exp(25), 6 servers x 16 workers):\n");
  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig base =
      synthetic_cluster(factory, high_variability());
  const double capacity =
      synthetic_capacity(base, 25.0, high_variability());

  harness::ShapeCheck check;

  // Dynamic cloning: rate adapts with load for NetClone, not C-Clone.
  base.scheme = harness::Scheme::kNetClone;
  const auto nc_low = run_at(base, 0.15, capacity);
  const auto nc_high = run_at(base, 0.85, capacity);
  const double rate_low = static_cast<double>(nc_low.cloned_requests) /
                          static_cast<double>(nc_low.requests_sent);
  const double rate_high = static_cast<double>(nc_high.cloned_requests) /
                           static_cast<double>(nc_high.requests_sent);
  std::printf("  NetClone cloning rate: %.0f%% @0.15 load -> %.0f%% "
              "@0.85 load (dynamic)\n",
              rate_low * 100.0, rate_high * 100.0);
  check.expect(rate_low > 0.8 && rate_high < 0.5,
               "NetClone cloning adapts to load");

  // Throughput: NetClone ~ baseline; C-Clone ~ half; LAEDGE far below.
  base.scheme = harness::Scheme::kBaseline;
  const auto bl = run_at(base, 0.9, capacity);
  base.scheme = harness::Scheme::kCClone;
  const auto cc = run_at(base, 0.9, capacity);
  base.scheme = harness::Scheme::kLaedge;
  const auto le = run_at(base, 0.9, capacity);
  std::printf("  Achieved @0.9 offered: Baseline %.0fK, C-Clone %.0fK, "
              "LAEDGE %.0fK, NetClone %.0fK RPS\n",
              bl.achieved_rps / 1e3, cc.achieved_rps / 1e3,
              le.achieved_rps / 1e3, nc_high.achieved_rps / 1e3);
  check.expect(nc_high.achieved_rps > 0.93 * bl.achieved_rps,
               "NetClone sustains baseline throughput (high throughput)");
  check.expect(cc.achieved_rps < 0.65 * bl.achieved_rps,
               "C-Clone static cloning halves throughput");
  check.expect(le.achieved_rps < 0.2 * bl.achieved_rps,
               "LAEDGE coordinator is the bottleneck (not scalable)");

  // Latency overhead of the cloning decision: NetClone adds only switch
  // pipeline time (hundreds of ns); LAEDGE adds coordinator CPU + queueing.
  base.scheme = harness::Scheme::kBaseline;
  const auto bl_low = run_at(base, 0.15, capacity);
  base.scheme = harness::Scheme::kLaedge;
  const auto le_low = run_at(base, 0.15 * 0.1, capacity);  // below ceiling
  std::printf("  p50 @low load: Baseline %.1f us, NetClone %.1f us "
              "(in-switch decision ~ns), LAEDGE %.1f us (coordinator "
              "adds CPU microseconds)\n",
              bl_low.p50.us(), nc_low.p50.us(), le_low.p50.us());
  check.expect(nc_low.p50.us() < bl_low.p50.us() + 2.0,
               "NetClone cloning decision adds sub-microsecond latency");
  check.expect(le_low.p50.us() > bl_low.p50.us() + 3.0,
               "LAEDGE coordinator adds microseconds per request");
  return check.report() ? 0 : 1;
}

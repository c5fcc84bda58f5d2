// Figure 13: confidence of the empty-queue state signal.
// (a) fraction of responses reporting an empty queue vs load;
// (b) 10 repeated runs at 0.9 load: mean +/- stdev of the 99th percentile
//     for the baseline and NetClone.
//
// Every run of both panels is independent, so all of them go through one
// parallel_for (common/parallel.hpp) on every usable CPU, and the report
// reads their results in the original order after the join: stdout does
// not depend on the number of CPUs, and `taskset -c 0` runs them serially.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Figure 13: confidence of state signals, Exp(25)\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig base =
      synthetic_cluster(factory, high_variability());
  const double capacity =
      synthetic_capacity(base, 25.0, high_variability());
  base.scheme = harness::Scheme::kBaseline;

  // (a) the Baseline at every load point, then (b) ten runs of each
  // scheme at 0.9 load, in report order.
  const std::vector<double> loads = harness::default_load_points();
  constexpr int kRuns = 10;
  constexpr harness::Scheme kSchemes[] = {harness::Scheme::kBaseline,
                                          harness::Scheme::kNetClone};
  std::vector<harness::ClusterConfig> runs;
  for (const double load : loads) {
    harness::ClusterConfig cfg = base;
    cfg.offered_rps = capacity * load;
    cfg.seed = 7 + static_cast<std::uint64_t>(load * 100);
    runs.push_back(cfg);
  }
  for (int run = 0; run < kRuns; ++run) {
    for (const harness::Scheme scheme : kSchemes) {
      harness::ClusterConfig cfg = base;
      cfg.scheme = scheme;
      cfg.offered_rps = capacity * 0.9;
      cfg.seed = 1000 + static_cast<std::uint64_t>(run);
      runs.push_back(cfg);
    }
  }
  std::vector<harness::ExperimentResult> results(runs.size());
  parallel_for(runs.size(), [&](std::size_t i) {
    harness::Experiment experiment{runs[i]};
    results[i] = experiment.run();
  });

  // (a) empty-queue fraction vs load, measured at the servers.
  std::printf("\n== Fig 13 (a) — portion of empty queues vs load ==\n");
  std::printf("  %6s %18s\n", "load", "empty-queue frac");
  std::vector<double> fractions;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    fractions.push_back(results[i].empty_queue_fraction);
    std::printf("  %6.2f %18.3f\n", loads[i],
                results[i].empty_queue_fraction);
  }

  harness::ShapeCheck check;
  check.expect(fractions.front() > 0.95,
               "(a) queues almost always empty at 0.1 load");
  check.expect(fractions.back() < fractions.front(),
               "(a) empty-queue fraction decreases with load");
  check.expect(fractions.back() > 0.02,
               "(a) queues still drain occasionally at 0.9 load "
               "(cloning persists at high load)");
  check.expect(fractions[5] < 1.0,
               "(a) mid loads already see occasional non-empty queues");

  // (b) ten runs at 0.9 load.
  std::printf("\n== Fig 13 (b) — ten runs at 0.9 load, p99 (us) ==\n");
  StreamingStats baseline_p99;
  StreamingStats netclone_p99;
  for (std::size_t i = loads.size(); i < runs.size(); ++i) {
    (runs[i].scheme == harness::Scheme::kBaseline ? baseline_p99
                                                  : netclone_p99)
        .add(results[i].p99.us());
  }
  std::printf("  %-9s mean %8.1f  stdev %7.1f  min %8.1f  max %8.1f\n",
              "Baseline", baseline_p99.mean(), baseline_p99.stddev(),
              baseline_p99.min(), baseline_p99.max());
  std::printf("  %-9s mean %8.1f  stdev %7.1f  min %8.1f  max %8.1f\n",
              "NetClone", netclone_p99.mean(), netclone_p99.stddev(),
              netclone_p99.min(), netclone_p99.max());

  check.expect(netclone_p99.mean() < 1.6 * baseline_p99.mean(),
               "(b) NetClone mean tail comparable to baseline at 0.9 "
               "(occasional inversions expected, cf. paper)");
  check.expect(netclone_p99.stddev() > 0.0,
               "(b) run-to-run variance exists at very high load");
  return check.report() ? 0 : 1;
}

// Ablation: number of filter tables (§3.5 "minimizing hash collisions").
// With deliberately tiny tables, the redundancy that leaks to clients
// (filter misses caused by collision overwrites) should fall as the number
// of tables grows, since requests with the same hash slot but different
// client-chosen IDX no longer interfere.
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Ablation: filter-table count under forced collisions "
              "(256-slot tables), Exp(25), 0.3 load\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig base =
      synthetic_cluster(factory, high_variability());
  base.scheme = harness::Scheme::kNetClone;
  const double capacity =
      synthetic_capacity(base, 25.0, high_variability());
  base.offered_rps = 0.3 * capacity;  // plenty of cloning, lots of traffic

  std::printf("\n  %7s %12s %12s %14s %12s\n", "tables", "cloned",
              "filtered", "leaked(redund)", "leak rate");
  std::vector<double> leak_rates;
  for (const std::size_t tables : {1U, 2U, 4U, 8U}) {
    harness::ClusterConfig cfg = base;
    cfg.netclone.num_filter_tables = tables;
    cfg.netclone.filter_slots = 256;
    harness::Experiment experiment{cfg};
    const auto result = experiment.run();
    const double leak_rate =
        result.cloned_requests == 0
            ? 0.0
            : static_cast<double>(result.redundant_responses) /
                  static_cast<double>(result.cloned_requests);
    leak_rates.push_back(leak_rate);
    std::printf("  %7zu %12llu %12llu %14llu %11.4f%%\n", tables,
                static_cast<unsigned long long>(result.cloned_requests),
                static_cast<unsigned long long>(result.filtered_responses),
                static_cast<unsigned long long>(result.redundant_responses),
                leak_rate * 100.0);
  }

  harness::ShapeCheck check;
  check.expect(leak_rates[0] > leak_rates[3],
               "more tables -> fewer collision leaks (1 vs 8 tables)");
  check.expect(leak_rates[1] <= leak_rates[0],
               "the paper's 2-table design beats a single table");
  check.expect(leak_rates[0] < 0.05,
               "even the worst case leaks <5% of cloned requests "
               "(overwrite keeps slots fresh)");
  return check.report() ? 0 : 1;
}

// Ablation: server-side clone admission rule (DESIGN.md §5, invariant 4).
// The paper drops a cloned copy when the FCFS queue is non-empty
// (kQueueEmpty); a stricter rule also drops it when no worker is free
// (kWorkerFree). This bench quantifies the difference across loads.
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Ablation: clone admission rule at the server, Exp(25)\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig base =
      synthetic_cluster(factory, high_variability());
  base.scheme = harness::Scheme::kNetClone;
  const double capacity =
      synthetic_capacity(base, 25.0, high_variability());

  struct Rule {
    const char* name;
    host::CloneAdmission admission;
  };
  const std::vector<Rule> rules = {
      {"queue-empty (paper §3.4)", host::CloneAdmission::kQueueEmpty},
      {"worker-free (stricter)", host::CloneAdmission::kWorkerFree},
  };

  std::vector<std::vector<harness::SweepPoint>> results;
  for (const Rule& rule : rules) {
    harness::ClusterConfig cfg = base;
    cfg.server_template.clone_admission = rule.admission;
    auto points =
        harness::run_sweep(cfg, capacity, {0.1, 0.3, 0.5, 0.7, 0.9});
    harness::print_series(std::string{"admission = "} + rule.name, points);
    results.push_back(std::move(points));
  }

  harness::ShapeCheck check;
  // At low load the rules coincide: queue empty iff workers plentiful.
  check.expect(std::abs(results[0][0].result.p99.us() -
                        results[1][0].result.p99.us()) <
                   0.15 * results[0][0].result.p99.us(),
               "rules agree at low load");
  // The stricter rule sheds more clones at high load.
  check.expect(results[1].back().result.dropped_stale_clones >=
                   results[0].back().result.dropped_stale_clones,
               "worker-free drops at least as many stale clones at 0.9");
  return check.report() ? 0 : 1;
}

// Figure 15: impact of redundant response filtering. NetClone with the
// filter disabled ships every duplicate response to the client; at low
// loads the client absorbs them, at high loads its receive path saturates
// and the tail ends up worse than the no-cloning baseline.
//
// A single client with a sub-microsecond receive path makes the client-side
// pressure visible, as in the paper's testbed where two clients field the
// full cluster's response stream.
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Figure 15: impact of redundant response filtering, "
              "Exp(25)\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig base =
      synthetic_cluster(factory, high_variability());
  base.num_clients = 1;
  base.client_template.rx_cost = SimTime::nanoseconds(600);
  const double capacity =
      synthetic_capacity(base, 25.0, high_variability());
  const auto loads = harness::default_load_points();

  std::vector<harness::SweepPoint> baseline;
  std::vector<harness::SweepPoint> netclone;
  std::vector<harness::SweepPoint> nofilter;
  for (const harness::Scheme scheme :
       {harness::Scheme::kBaseline, harness::Scheme::kNetClone,
        harness::Scheme::kNetCloneNoFilter}) {
    base.scheme = scheme;
    auto points = harness::run_sweep(base, capacity, loads);
    harness::print_series(std::string{"Fig 15 — "} +
                              harness::scheme_name(scheme),
                          points);
    if (scheme == harness::Scheme::kBaseline) {
      baseline = std::move(points);
    } else if (scheme == harness::Scheme::kNetClone) {
      netclone = std::move(points);
    } else {
      nofilter = std::move(points);
    }
  }

  harness::ShapeCheck check;
  // At low load, redundancy barely hurts: no-filter ~ NetClone.
  check.expect(nofilter[0].result.p99.us() <
                   1.25 * netclone[0].result.p99.us(),
               "low load: unfiltered redundancy is mostly harmless");
  // As load grows the no-filter variant degrades vs filtered NetClone.
  check.expect(nofilter[7].result.p99 > netclone[7].result.p99,
               "high load: filtering beats no-filtering");
  // And eventually performs worse than the no-cloning baseline.
  bool worse_than_baseline = false;
  for (std::size_t i = 5; i < loads.size(); ++i) {
    worse_than_baseline = worse_than_baseline ||
                          nofilter[i].result.p99 > baseline[i].result.p99;
  }
  check.expect(worse_than_baseline,
               "high load: no-filter NetClone falls below the baseline");
  return check.report() ? 0 : 1;
}

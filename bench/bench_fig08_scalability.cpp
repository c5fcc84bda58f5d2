// Figure 8: comparison with the existing solutions on achieved throughput.
// Five workers (one machine is reserved for the LÆDGE coordinator), Exp(25),
// sweeping the *offered* load in absolute terms: LÆDGE flat-lines at its
// coordinator ceiling, C-Clone at ~half the cluster, NetClone tracks the
// offered load to the cluster limit.
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf(
      "Figure 8: scalability vs C-Clone and LAEDGE, Exp(25), 5 workers\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig base =
      synthetic_cluster(factory, high_variability(), /*num_servers=*/5);
  const double capacity =
      synthetic_capacity(base, 25.0, high_variability());

  // Offered-load points in absolute RPS (fractions of the 5-worker rack).
  const std::vector<double> fractions = {0.05, 0.1, 0.2, 0.3, 0.45,
                                         0.6, 0.75, 0.9};

  double peak_laedge = 0.0;
  double peak_cclone = 0.0;
  double peak_netclone = 0.0;
  for (const harness::Scheme scheme :
       {harness::Scheme::kLaedge, harness::Scheme::kCClone,
        harness::Scheme::kNetClone}) {
    base.scheme = scheme;
    const auto points = harness::run_sweep(base, capacity, fractions);
    std::printf("\n== Fig 8 — %s ==\n", harness::scheme_name(scheme));
    std::printf("  %-10s %12s %12s\n", "scheme", "offered(K)",
                "achieved(K)");
    for (const auto& p : points) {
      std::printf("  %-10s %12.1f %12.1f\n", harness::scheme_name(scheme),
                  p.result.offered_rps / 1e3,
                  p.result.achieved_rps / 1e3);
    }
    const double peak = harness::peak_throughput(points);
    if (scheme == harness::Scheme::kLaedge) {
      peak_laedge = peak;
    } else if (scheme == harness::Scheme::kCClone) {
      peak_cclone = peak;
    } else {
      peak_netclone = peak;
    }
  }

  harness::ShapeCheck check;
  check.expect(peak_laedge < 0.3 * peak_cclone,
               "LAEDGE peak well below C-Clone (coordinator CPU ceiling)");
  check.expect(peak_cclone < 0.65 * peak_netclone,
               "C-Clone peak ~ half of NetClone (static 2x cloning)");
  check.expect(peak_netclone > 0.8 * capacity,
               "NetClone reaches the cluster capacity");
  return check.report() ? 0 : 1;
}

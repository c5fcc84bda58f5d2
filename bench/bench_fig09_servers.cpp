// Figure 9: impact of the number of worker servers (2, 4, 6), Exp(25),
// Baseline vs NetClone. Throughput scales with servers; NetClone keeps the
// lower tail; with few servers, very high load can invert (herding).
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Figure 9: impact of the number of servers, Exp(25)\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ShapeCheck check;
  double prev_netclone_peak = 0.0;
  for (const std::size_t servers : {2U, 4U, 6U}) {
    harness::ClusterConfig base =
        synthetic_cluster(factory, high_variability(), servers);
    const double capacity =
        synthetic_capacity(base, 25.0, high_variability());
    const auto loads = harness::default_load_points();

    std::vector<harness::SweepPoint> baseline;
    std::vector<harness::SweepPoint> netclone;
    for (const harness::Scheme scheme :
         {harness::Scheme::kBaseline, harness::Scheme::kNetClone}) {
      base.scheme = scheme;
      auto points = harness::run_sweep(base, capacity, loads);
      harness::print_series("Fig 9 — " + std::to_string(servers) +
                                " servers — " +
                                harness::scheme_name(scheme),
                            points);
      (scheme == harness::Scheme::kBaseline ? baseline : netclone) =
          std::move(points);
    }

    // Tail advantage at low-to-mid load for every cluster size.
    bool better = true;
    for (std::size_t i = 0; i < 5; ++i) {
      better = better && netclone[i].result.p99 <= baseline[i].result.p99;
    }
    check.expect(better, std::to_string(servers) +
                             " servers: NetClone p99 <= baseline "
                             "(loads 0.1-0.5)");
    // Throughput scales with the number of servers.
    const double peak = harness::peak_throughput(netclone);
    check.expect(peak > prev_netclone_peak,
                 std::to_string(servers) +
                     " servers: throughput grows with cluster size");
    prev_netclone_peak = peak;
  }
  return check.report() ? 0 : 1;
}

// Figure 10: synergy with RackSched under homogeneous (6 x 15 workers) and
// heterogeneous (3 x 15 + 3 x 8 workers) clusters, for Exp(25) and Bimodal
// workloads. NetClone+RackSched is expected to dominate overall, with the
// biggest edge in the heterogeneous setup.
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Figure 10: NetClone x RackSched, homogeneous vs "
              "heterogeneous workers\n");

  struct Setup {
    const char* name;
    std::vector<std::uint32_t> workers;
  };
  const std::vector<Setup> setups = {
      {"homogeneous (6x15)", {15, 15, 15, 15, 15, 15}},
      {"heterogeneous (3x15+3x8)", {15, 15, 15, 8, 8, 8}},
  };
  struct Workload {
    const char* name;
    std::shared_ptr<host::RequestFactory> factory;
    double mean_us;
  };
  const std::vector<Workload> workloads = {
      {"Exp(25)", std::make_shared<host::ExponentialWorkload>(25.0), 25.0},
      {"Bimodal(90-25,10-250)",
       std::make_shared<host::BimodalWorkload>(0.9, 25.0, 250.0), 47.5},
  };

  harness::ShapeCheck check;
  for (const Setup& setup : setups) {
    for (const Workload& w : workloads) {
      harness::ClusterConfig base =
          synthetic_cluster(w.factory, high_variability());
      base.server_workers = setup.workers;
      const double capacity =
          synthetic_capacity(base, w.mean_us, high_variability());
      const auto loads = harness::default_load_points();

      std::vector<harness::SweepPoint> netclone;
      std::vector<harness::SweepPoint> racksched;
      std::vector<harness::SweepPoint> combined;
      for (const harness::Scheme scheme :
           {harness::Scheme::kNetClone, harness::Scheme::kRackSched,
            harness::Scheme::kNetCloneRackSched}) {
        base.scheme = scheme;
        auto points = harness::run_sweep(base, capacity, loads);
        harness::print_series(std::string{"Fig 10 — "} + setup.name +
                                  " — " + w.name + " — " +
                                  harness::scheme_name(scheme),
                              points);
        if (scheme == harness::Scheme::kNetClone) {
          netclone = std::move(points);
        } else if (scheme == harness::Scheme::kRackSched) {
          racksched = std::move(points);
        } else {
          combined = std::move(points);
        }
      }

      // The integration keeps NetClone's low-load tail advantage over
      // plain RackSched...
      bool low_ok = true;
      for (std::size_t i = 0; i < 4; ++i) {
        low_ok = low_ok &&
                 combined[i].result.p99 <= racksched[i].result.p99;
      }
      check.expect(low_ok, std::string{setup.name} + " " + w.name +
                               ": integration <= RackSched at low loads");
      // ...and improves on plain NetClone at the highest load (JSQ
      // absorbs the imbalance cloning cannot).
      check.expect(
          combined.back().result.p99 <=
              netclone.back().result.p99,
          std::string{setup.name} + " " + w.name +
              ": integration <= plain NetClone at 0.9 load");
    }
  }
  return check.report() ? 0 : 1;
}

// Figure 14: low service-time variability (p = 0.001). NetClone still
// improves the tail, but by less than at p = 0.01 — the gain of cloning
// comes from masking variability.
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Figure 14: low variability (p=0.001), 6 servers x 16 "
              "workers\n");

  struct Workload {
    const char* name;
    std::shared_ptr<host::RequestFactory> factory;
    double mean_us;
  };
  const std::vector<Workload> workloads = {
      {"14a Exp(25)", std::make_shared<host::ExponentialWorkload>(25.0),
       25.0},
      {"14b Bimodal(90-25,10-250)",
       std::make_shared<host::BimodalWorkload>(0.9, 25.0, 250.0), 47.5},
  };

  harness::ShapeCheck check;
  for (const Workload& w : workloads) {
    std::vector<harness::SweepPoint> base_low;
    std::vector<harness::SweepPoint> net_low;
    std::vector<harness::SweepPoint> base_high;
    std::vector<harness::SweepPoint> net_high;
    for (const host::JitterModel jitter :
         {low_variability(), high_variability()}) {
      harness::ClusterConfig base = synthetic_cluster(w.factory, jitter);
      const double capacity = synthetic_capacity(base, w.mean_us, jitter);
      const auto loads = harness::default_load_points();
      for (const harness::Scheme scheme :
           {harness::Scheme::kBaseline, harness::Scheme::kNetClone}) {
        base.scheme = scheme;
        auto points = harness::run_sweep(base, capacity, loads);
        const bool low = jitter.probability < 0.005;
        if (low) {
          harness::print_series(std::string{w.name} + " p=0.001 — " +
                                    harness::scheme_name(scheme),
                                points);
        }
        if (scheme == harness::Scheme::kBaseline) {
          (low ? base_low : base_high) = std::move(points);
        } else {
          (low ? net_low : net_high) = std::move(points);
        }
      }
    }

    // NetClone still helps at p=0.001 (low loads; 5% tolerance covers
    // histogram quantile resolution).
    bool better = true;
    for (std::size_t i = 0; i < 4; ++i) {
      better = better && net_low[i].result.p99.us() <=
                             1.05 * base_low[i].result.p99.us();
    }
    check.expect(better, std::string{w.name} +
                             ": NetClone still <= baseline at p=0.001");
    // ...but the improvement shrinks relative to p=0.01.
    const double gain_low =
        harness::best_p99_improvement(base_low, net_low);
    const double gain_high =
        harness::best_p99_improvement(base_high, net_high);
    check.expect(gain_low <= gain_high + 0.05,
                 std::string{w.name} + ": improvement at p=0.001 (" +
                     std::to_string(gain_low) +
                     "x) below p=0.01 (" + std::to_string(gain_high) +
                     "x)");
  }
  return check.report() ? 0 : 1;
}

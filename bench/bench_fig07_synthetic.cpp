// Figure 7: 99th-percentile latency vs throughput for synthetic workloads
// (a) Exp(25), (b) Bimodal(90%-25, 10%-250), (c) Exp(50), (d) Exp(500),
// comparing Baseline, C-Clone, and NetClone at p = 0.01 on 6 x 16 workers.
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

namespace {

struct Workload {
  const char* figure;
  std::shared_ptr<host::RequestFactory> factory;
  double mean_us;
  double stretch;  // longer RPCs need longer measurement windows
};

}  // namespace

int main() {
  std::printf("Figure 7: synthetic workloads, p=0.01, 6 servers x 16 "
              "workers, 2 clients\n");

  const std::vector<Workload> workloads = {
      {"7a Exp(25)", std::make_shared<host::ExponentialWorkload>(25.0), 25.0,
       1.0},
      {"7b Bimodal(90%-25,10%-250)",
       std::make_shared<host::BimodalWorkload>(0.9, 25.0, 250.0), 47.5,
       1.0},
      {"7c Exp(50)", std::make_shared<host::ExponentialWorkload>(50.0), 50.0,
       1.5},
      {"7d Exp(500)", std::make_shared<host::ExponentialWorkload>(500.0),
       500.0, 6.0},
  };

  harness::ShapeCheck check;
  for (const Workload& w : workloads) {
    harness::ClusterConfig base =
        synthetic_cluster(w.factory, high_variability());
    stretch_for_long_rpcs(base, w.stretch);
    const double capacity =
        synthetic_capacity(base, w.mean_us, high_variability());
    const auto loads = harness::default_load_points();

    std::vector<harness::SweepPoint> baseline;
    std::vector<harness::SweepPoint> cclone;
    std::vector<harness::SweepPoint> netclone;
    for (const harness::Scheme scheme :
         {harness::Scheme::kBaseline, harness::Scheme::kCClone,
          harness::Scheme::kNetClone}) {
      base.scheme = scheme;
      auto points = harness::run_sweep(base, capacity, loads);
      harness::print_series(std::string{w.figure} + " — " +
                                harness::scheme_name(scheme),
                            points);
      if (scheme == harness::Scheme::kBaseline) {
        baseline = std::move(points);
      } else if (scheme == harness::Scheme::kCClone) {
        cclone = std::move(points);
      } else {
        netclone = std::move(points);
      }
    }

    // Paper shapes for every subfigure:
    // C-Clone saturates around half the baseline peak.
    const double ratio = harness::peak_throughput(cclone) /
                         harness::peak_throughput(baseline);
    check.expect(ratio > 0.4 && ratio < 0.7,
                 std::string{w.figure} +
                     ": C-Clone peak throughput ~ half of baseline "
                     "(measured ratio " +
                     std::to_string(ratio) + ")");
    // NetClone sustains the baseline's peak throughput.
    check.expect(harness::peak_throughput(netclone) >
                     0.93 * harness::peak_throughput(baseline),
                 std::string{w.figure} +
                     ": NetClone throughput matches baseline");
    // NetClone beats (or at worst matches, within the histogram's 1.6%
    // quantile resolution) the baseline tail at low/mid loads.
    bool better_low_mid = true;
    for (std::size_t i = 0; i < 6; ++i) {  // loads 0.1 .. 0.6
      better_low_mid = better_low_mid &&
                       netclone[i].result.p99.us() <=
                           1.05 * baseline[i].result.p99.us();
    }
    check.expect(better_low_mid,
                 std::string{w.figure} +
                     ": NetClone p99 <= baseline for loads 0.1-0.6");
    // NetClone does not beat C-Clone at the lowest load (C-Clone always
    // clones; NetClone occasionally sees non-empty tracked queues).
    check.expect(netclone[0].result.p99.us() >=
                     0.9 * cclone[0].result.p99.us(),
                 std::string{w.figure} +
                     ": C-Clone at low load is at least as good");
    // The cloning rate decays as load grows (dynamic cloning).
    const auto clone_rate = [](const harness::SweepPoint& p) {
      return static_cast<double>(p.result.cloned_requests) /
             static_cast<double>(
                 std::max<std::uint64_t>(p.result.requests_sent, 1));
    };
    check.expect(clone_rate(netclone.front()) > clone_rate(netclone.back()),
                 std::string{w.figure} + ": cloning rate decays with load");
  }
  return check.report() ? 0 : 1;
}

// Robustness deep-dive (in the spirit of §5.6): bursty, Markov-modulated
// arrivals instead of Poisson. Load fluctuation is one of the variability
// sources the paper motivates cloning with — bursts deepen queues
// transiently, and dynamic cloning should keep masking the damage without
// hurting throughput.
//
// Each scheme's sweep runs over kPaths ON/OFF sample paths (base seeds
// 1000 * config seed + path). The throughput check pools the achieved
// rate over every path and load: one 7-point sweep's peak depends on
// where its bursts happen to fall.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Robustness: bursty arrivals (MMPP, 25%% duty cycle), "
              "Exp(25), 6 servers x 16 workers\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig base =
      synthetic_cluster(factory, high_variability());
  base.client_template.arrival = host::ArrivalProcess::kBursty;
  const double capacity =
      synthetic_capacity(base, 25.0, high_variability());
  const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};

  constexpr std::uint64_t kPaths = 5;
  using Paths = std::vector<std::vector<harness::SweepPoint>>;
  Paths baseline_paths;
  Paths netclone_paths;
  for (const harness::Scheme scheme :
       {harness::Scheme::kBaseline, harness::Scheme::kNetClone}) {
    Paths& paths =
        scheme == harness::Scheme::kBaseline ? baseline_paths : netclone_paths;
    for (std::uint64_t path = 0; path < kPaths; ++path) {
      harness::ClusterConfig cfg = base;
      cfg.scheme = scheme;
      cfg.seed = 1000 * base.seed + path;
      paths.push_back(harness::run_sweep(cfg, capacity, loads));
      harness::print_series(std::string{"bursty — "} +
                                harness::scheme_name(scheme) +
                                ", sample path " + std::to_string(path),
                            paths.back());
    }
  }
  // Achieved throughput summed over every path and load.
  const auto total_rps = [](const Paths& paths) {
    double total = 0.0;
    for (const auto& points : paths) {
      for (const harness::SweepPoint& p : points) {
        total += p.result.achieved_rps;
      }
    }
    return total;
  };
  const double throughput_ratio =
      total_rps(netclone_paths) / total_rps(baseline_paths);
  std::printf("\nachieved throughput over %llu paths x %zu loads: "
              "NetClone / baseline = %.3f\n",
              static_cast<unsigned long long>(kPaths), loads.size(),
              throughput_ratio);
  // The tail check and the overload note read the first sample path.
  const std::vector<harness::SweepPoint>& baseline = baseline_paths[0];
  const std::vector<harness::SweepPoint>& netclone = netclone_paths[0];

  harness::ShapeCheck check;
  // With a 25% duty cycle the instantaneous rate is 4x the nominal load,
  // so nominal loads < 0.25 keep even the bursts inside capacity — there
  // NetClone's advantage must survive intact.
  bool better_within_capacity = true;
  for (std::size_t i = 0; i < 2; ++i) {  // loads 0.1, 0.2
    better_within_capacity =
        better_within_capacity && netclone[i].result.p99.us() <=
                                      1.05 * baseline[i].result.p99.us();
  }
  check.expect(better_within_capacity,
               "NetClone tail advantage intact while bursts stay within "
               "capacity (nominal load < duty cycle)");
  check.expect(throughput_ratio > 0.93,
               "no throughput cost under bursts (total over all sample "
               "paths and loads)");
  // Beyond the duty cycle, ON windows transiently overload the rack; the
  // tracked state lags and cloning gains thin out or invert — the same
  // staleness effect the paper observes at very high steady load (§5.3).
  std::printf("\ntransient-overload region (nominal >= 0.25): baseline "
              "p99 @0.4 = %.1f us, NetClone p99 @0.4 = %.1f us — "
              "state-signal lag under bursts, cf. paper §5.3 herding\n",
              baseline[3].result.p99.us(), netclone[3].result.p99.us());
  return check.report() ? 0 : 1;
}

// Robustness deep-dive (in the spirit of §5.6): bursty, Markov-modulated
// arrivals instead of Poisson. Load fluctuation is one of the variability
// sources the paper motivates cloning with — bursts deepen queues
// transiently, and dynamic cloning should keep masking the damage without
// hurting throughput.
#include <cstdio>

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
  base.client_template.burst_on_fraction = 0.25;
  const double capacity =
      synthetic_capacity(base, 25.0, high_variability());
  const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};

  std::vector<harness::SweepPoint> baseline;
  std::vector<harness::SweepPoint> netclone;
  for (const harness::Scheme scheme :
       {harness::Scheme::kBaseline, harness::Scheme::kNetClone}) {
    base.scheme = scheme;
    auto points = harness::run_sweep(base, capacity, loads);
    harness::print_series(std::string{"bursty — "} +
                              harness::scheme_name(scheme),
                          points);
    (scheme == harness::Scheme::kBaseline ? baseline : netclone) =
        std::move(points);
  }

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
  check.expect(harness::peak_throughput(netclone) >
                   0.93 * harness::peak_throughput(baseline),
               "no throughput cost under bursts");
  // Beyond the duty cycle, ON windows transiently overload the rack; the
  // tracked state lags and cloning gains thin out or invert — the same
  // staleness effect the paper observes at very high steady load (§5.3).
  std::printf("\ntransient-overload region (nominal >= 0.25): baseline "
              "p99 @0.4 = %.1f us, NetClone p99 @0.4 = %.1f us — "
              "state-signal lag under bursts, cf. paper §5.3 herding\n",
              baseline[3].result.p99.us(), netclone[3].result.p99.us());
  return check.report() ? 0 : 1;
}

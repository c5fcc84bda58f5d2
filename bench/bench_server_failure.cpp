// §3.6 "Server failures": the paper describes (without plotting) that the
// control plane removes a failed worker from the group/address tables and
// performance degrades only by the lost capacity. This bench produces the
// timeline: unlike the switch failure of Fig. 16 (total outage), removing
// one of six workers mid-run barely dents throughput at mid load, and
// cloning continues over the survivors.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Section 3.6: server failure, Exp(25), 6 -> 5 workers at "
              "t=12ms, 0.5 load\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig cfg =
      synthetic_cluster(factory, high_variability());
  cfg.scheme = harness::Scheme::kNetClone;
  const double capacity =
      synthetic_capacity(cfg, 25.0, high_variability());
  cfg.offered_rps = 0.5 * capacity;
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(24);

  harness::Experiment experiment{cfg};
  experiment.simulator().schedule_at(
      SimTime::milliseconds(12),
      [&experiment] { experiment.remove_server(ServerId{2}); });
  const auto bins = experiment.run_timeline(
      SimTime::milliseconds(24), SimTime::milliseconds(2), std::nullopt,
      std::nullopt);

  std::printf("\n  t(ms)  completed KRPS\n");
  for (std::size_t i = 0; i < bins.size(); ++i) {
    std::printf("  %5zu %14.1f\n", (i + 1) * 2,
                static_cast<double>(bins[i]) / 2e-3 / 1e3);
  }

  const double before =
      static_cast<double>(bins[3] + bins[4]) / 2.0;  // 8-12 ms
  const double dip = static_cast<double>(
      *std::min_element(bins.begin() + 6, bins.end()));
  const double after =
      static_cast<double>(bins[10] + bins[11]) / 2.0;  // 22-24 ms

  const auto& ps = experiment.netclone_program()->stats();
  std::printf("\nafter removal: cloning continues over 5 workers "
              "(cloned %llu, filtered %llu), stale-group drops %llu\n",
              static_cast<unsigned long long>(ps.cloned_requests),
              static_cast<unsigned long long>(ps.filtered_responses),
              static_cast<unsigned long long>(ps.missing_route_drops));

  harness::ShapeCheck check;
  check.expect(after > 0.95 * before,
               "offered load fits the surviving 5 workers: throughput "
               "recovers fully");
  check.expect(dip > 0.5 * before,
               "no Fig.16-style outage: the dip is transient "
               "reconfiguration loss only");
  check.expect(ps.missing_route_drops < 200,
               "stale-group-id drops are bounded to in-flight requests");
  check.expect(ps.cloned_requests > 0, "cloning active throughout");
  return check.report() ? 0 : 1;
}

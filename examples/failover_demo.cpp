// Switch-failure drill (paper §3.6 / Fig. 16): run a NetClone rack, kill
// the ToR mid-run, bring it back, and print an ASCII throughput timeline
// demonstrating that only soft state is lost — no reconciliation needed.
//
//   ./build/examples/failover_demo
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "harness/experiment.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

using namespace netclone;

int main() {
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.server_workers.assign(4, 4);
  cfg.factory = std::make_shared<host::ExponentialWorkload>(100.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::seconds(12);
  const double capacity =
      harness::cluster_capacity_rps(cfg.server_workers, 100.0 * 1.14);
  cfg.offered_rps = 0.5 * capacity;
  cfg.faults.events = {harness::parse_fault_entry("at=4s switch_fail sw0"),
                       harness::parse_fault_entry("at=6s switch_recover sw0")};

  harness::Experiment experiment{cfg};
  std::printf("NetClone rack at 50%% load; ToR fails at t=4s, "
              "recovers at t=6s\n\n");
  const auto bins = experiment.run_timeline(SimTime::seconds(12),
                                            SimTime::milliseconds(500));

  const std::uint64_t peak = *std::max_element(bins.begin(), bins.end());
  std::printf("  t(s)   KRPS  |timeline (each # ~ %.0f KRPS)\n",
              static_cast<double>(peak) / 40.0 / 1e3 * 2.0);
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const auto width = static_cast<std::size_t>(
        40.0 * static_cast<double>(bins[i]) /
        static_cast<double>(std::max<std::uint64_t>(peak, 1)));
    std::printf("  %4.1f %6.1f  |%s\n",
                static_cast<double>(i + 1) * 0.5,
                static_cast<double>(bins[i]) / 1e3 * 2.0,
                std::string(width, '#').c_str());
  }

  const auto& ps = experiment.netclone_program()->stats();
  std::printf("\nafter recovery: requests %llu, cloned %llu, "
              "filtered %llu — cloning resumed from wiped soft state\n",
              static_cast<unsigned long long>(ps.requests),
              static_cast<unsigned long long>(ps.cloned_requests),
              static_cast<unsigned long long>(ps.filtered_responses));
  std::printf("(the request-id sequence restarted from zero; server "
              "states repopulated from the first responses — §3.6)\n");
  return 0;
}

// §4.1 implementation report: match-action stages, SRAM footprint, and the
// back-of-the-envelope filter-table throughput bound, computed from the
// resources the NetClone program actually registers.
#include <cstdio>

#include "bench_common.hpp"
#include "pisa/audit.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Section 4.1: switch resource usage\n\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig cfg =
      synthetic_cluster(factory, high_variability());
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.offered_rps = 1000.0;  // resources are static; traffic is irrelevant
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(1);
  cfg.drain = SimTime::milliseconds(1);
  harness::Experiment experiment{cfg};
  (void)experiment.run();

  const pisa::AuditReport report = pisa::audit(experiment.tor().pipeline());
  std::printf("%s\n", report.to_string().c_str());

  // Back-of-the-envelope (§4.1): with mean request latency of 50 us each
  // filter slot turns over 20 KRPS; 2^18 slots -> ~5.24 BRPS.
  const core::NetCloneConfig& nc = experiment.netclone_program()->config();
  const double slots = static_cast<double>(nc.num_filter_tables) *
                       static_cast<double>(nc.filter_slots);
  const double per_slot_krps = 1e6 / 50.0 / 1e3;  // 20 KRPS per slot
  const double total_brps = slots * per_slot_krps * 1e3 / 1e9;
  std::printf("filter tables: %zu x 2^17 slots; at 50 us mean latency each "
              "slot sustains %.0f KRPS -> %.2f BRPS aggregate bound\n",
              nc.num_filter_tables, per_slot_krps, total_brps);

  harness::ShapeCheck check;
  check.expect(report.stages_used == 7,
               "NetClone consumes 7 match-action stages (paper: 7)");
  check.expect(report.sram_fraction > 0.04 && report.sram_fraction < 0.055,
               "SRAM ~4.8% of the ASIC (paper: 4.77%)");
  check.expect(total_brps > 5.0 && total_brps < 5.5,
               "filter-table throughput bound ~5.24 BRPS (paper: 5.24)");
  check.expect(report.stages_used <= report.stages_available,
               "fits the 12-stage ingress pipeline");
  return check.report() ? 0 : 1;
}

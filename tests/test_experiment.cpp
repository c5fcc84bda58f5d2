// Integration tests: whole clusters, end to end, on short schedules.
#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/report.hpp"
#include "pisa/audit.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

namespace netclone::harness {
namespace {

ClusterConfig small_cluster(Scheme scheme, double load_fraction) {
  ClusterConfig cfg;
  cfg.scheme = scheme;
  cfg.server_workers = {8, 8, 8, 8};
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15.0});
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(8);
  cfg.drain = SimTime::milliseconds(10);
  const double capacity = cluster_capacity_rps(cfg.server_workers,
                                               25.0 * 1.14);
  cfg.offered_rps = capacity * load_fraction;
  return cfg;
}

TEST(CapacityHelper, Math) {
  const std::vector<std::uint32_t> workers{16, 16};
  EXPECT_DOUBLE_EQ(cluster_capacity_rps(workers, 25.0), 32.0 * 1e6 / 25.0);
  EXPECT_THROW((void)cluster_capacity_rps(workers, 0.0), CheckFailure);
}

TEST(SchemeNames, AllDistinct) {
  std::set<std::string> names;
  for (const Scheme s :
       {Scheme::kBaseline, Scheme::kCClone, Scheme::kLaedge,
        Scheme::kNetClone, Scheme::kNetCloneNoFilter, Scheme::kRackSched,
        Scheme::kNetCloneRackSched}) {
    EXPECT_TRUE(names.insert(scheme_name(s)).second);
  }
}

TEST(Experiment, ConfigValidation) {
  ClusterConfig cfg = small_cluster(Scheme::kNetClone, 0.3);
  cfg.factory = nullptr;
  EXPECT_THROW(Experiment{cfg}, CheckFailure);
  cfg = small_cluster(Scheme::kNetClone, 0.3);
  cfg.server_workers = {8};
  EXPECT_THROW(Experiment{cfg}, CheckFailure);
  cfg = small_cluster(Scheme::kNetClone, 0.3);
  cfg.num_clients = 0;
  EXPECT_THROW(Experiment{cfg}, CheckFailure);
}

TEST(Experiment, DeterministicForSeed) {
  const ClusterConfig cfg = small_cluster(Scheme::kNetClone, 0.4);
  Experiment e1{cfg};
  Experiment e2{cfg};
  const ExperimentResult r1 = e1.run();
  const ExperimentResult r2 = e2.run();
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.p99, r2.p99);
  EXPECT_EQ(r1.cloned_requests, r2.cloned_requests);
  EXPECT_EQ(r1.filtered_responses, r2.filtered_responses);
}

TEST(Experiment, SeedChangesOutcome) {
  ClusterConfig cfg = small_cluster(Scheme::kNetClone, 0.4);
  Experiment e1{cfg};
  cfg.seed = 999;
  Experiment e2{cfg};
  EXPECT_NE(e1.run().completed, e2.run().completed);
}

// Every scheme must run a low-load cluster to (near-)complete conservation:
// every measured request gets exactly one accepted response.
class SchemeSweep : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeSweep, LowLoadConservation) {
  ClusterConfig cfg = small_cluster(GetParam(), 0.2);
  if (GetParam() == Scheme::kLaedge) {
    // The coordinator saturates around 1/7 us per request; stay below.
    cfg.offered_rps = 60000.0;
  }
  Experiment experiment{cfg};
  const ExperimentResult result = experiment.run();

  EXPECT_GT(result.requests_sent, 100U);
  EXPECT_GT(result.completed, 0U);
  // After drain, every client request completed (no losses at low load).
  std::uint64_t completed_total = 0;
  std::uint64_t redundant = 0;
  for (const host::Client* client : experiment.clients()) {
    completed_total += client->stats().completed;
    redundant += client->stats().redundant_responses;
  }
  EXPECT_EQ(completed_total, result.requests_sent);
  // Achieved rate tracks offered rate at this load.
  EXPECT_NEAR(result.achieved_rps, cfg.offered_rps,
              cfg.offered_rps * 0.08);
  EXPECT_GT(result.p99.ns(), 0);
  EXPECT_GE(result.p99, result.p50);

  if (GetParam() == Scheme::kNetClone ||
      GetParam() == Scheme::kNetCloneRackSched) {
    EXPECT_GT(result.cloned_requests, 0U);
    EXPECT_GT(result.filtered_responses, 0U);
    // Filtering keeps redundancy away from clients (collisions aside).
    EXPECT_LT(static_cast<double>(redundant),
              static_cast<double>(result.cloned_requests) * 0.01 + 2.0);
  }
  if (GetParam() == Scheme::kCClone) {
    // The client handles every duplicate itself.
    EXPECT_GT(redundant, 0U);
  }
  if (GetParam() == Scheme::kNetCloneNoFilter) {
    EXPECT_GT(result.cloned_requests, 0U);
    EXPECT_EQ(result.filtered_responses, 0U);
    EXPECT_GT(redundant, 0U);  // duplicates reach the client unfiltered
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSweep,
    ::testing::Values(Scheme::kBaseline, Scheme::kCClone, Scheme::kLaedge,
                      Scheme::kNetClone, Scheme::kNetCloneNoFilter,
                      Scheme::kRackSched, Scheme::kNetCloneRackSched),
    [](const ::testing::TestParamInfo<Scheme>& param_info) {
      std::string name = scheme_name(param_info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') {
          c = '_';
        }
      }
      return name;
    });

TEST(Experiment, NetCloneAccountingConsistent) {
  Experiment experiment{small_cluster(Scheme::kNetClone, 0.3)};
  const ExperimentResult result = experiment.run();
  const auto& prog = *experiment.netclone_program();

  // Every cloned request either had its duplicate filtered at the switch,
  // its clone dropped at a busy server, or leaked one redundant response
  // to the client (collision overwrite) — nothing disappears silently.
  std::uint64_t redundant = 0;
  for (const host::Client* client : experiment.clients()) {
    redundant += client->stats().redundant_responses;
  }
  std::uint64_t stale = 0;
  for (const host::Server* server : experiment.servers()) {
    stale += server->stats().dropped_stale_clones;
  }
  EXPECT_EQ(prog.stats().cloned_requests,
            prog.stats().filtered_responses + stale + redundant);
  // Recirculated copies equal cloned requests (one loopback per clone).
  EXPECT_EQ(prog.stats().recirculated_clones, prog.stats().cloned_requests);
  EXPECT_EQ(result.switch_stats.recirculated,
            prog.stats().cloned_requests);
}

TEST(Experiment, EmptyQueueFractionDropsWithLoad) {
  // Fig. 13 (a): the state signal weakens as load grows.
  Experiment low{small_cluster(Scheme::kBaseline, 0.15)};
  Experiment high{small_cluster(Scheme::kBaseline, 0.85)};
  const double f_low = low.run().empty_queue_fraction;
  const double f_high = high.run().empty_queue_fraction;
  EXPECT_GT(f_low, 0.9);
  EXPECT_LT(f_high, f_low);
  EXPECT_GT(f_high, 0.0);
}

TEST(Experiment, TimelineWithSwitchFailureRecovers) {
  // Fig. 16 in miniature: fail at 6 ms, recover at 10 ms, 20 ms total.
  ClusterConfig cfg = small_cluster(Scheme::kNetClone, 0.4);
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(20);
  cfg.faults.events = {parse_fault_entry("at=6ms switch_fail sw0"),
                       parse_fault_entry("at=10ms switch_recover sw0")};
  Experiment experiment{cfg};
  const auto bins = experiment.run_timeline(SimTime::milliseconds(20),
                                            SimTime::milliseconds(2));
  ASSERT_EQ(bins.size(), 10U);
  EXPECT_GT(bins[1], 0U);   // healthy before failure
  EXPECT_EQ(bins[4], 0U);   // 8-10 ms: switch down, nothing completes
  EXPECT_GT(bins[7], 0U);   // recovered
  // Post-recovery throughput returns to the pre-failure level.
  EXPECT_NEAR(static_cast<double>(bins[8]), static_cast<double>(bins[1]),
              static_cast<double>(bins[1]) * 0.35);
}

TEST(Experiment, SweepHelperRunsAllPoints) {
  const ClusterConfig cfg = small_cluster(Scheme::kBaseline, 0.1);
  const auto points =
      run_sweep(cfg, cluster_capacity_rps(cfg.server_workers, 28.5),
                {0.2, 0.5});
  ASSERT_EQ(points.size(), 2U);
  EXPECT_LT(points[0].result.achieved_rps, points[1].result.achieved_rps);
  EXPECT_DOUBLE_EQ(points[0].load_fraction, 0.2);
}

TEST(Experiment, HeterogeneousWorkerCounts) {
  ClusterConfig cfg = small_cluster(Scheme::kNetCloneRackSched, 0.5);
  cfg.server_workers = {15, 15, 15, 8, 8, 8};  // Fig. 10 heterogeneous setup
  Experiment experiment{cfg};
  const ExperimentResult result = experiment.run();
  EXPECT_GT(result.completed, 0U);
  EXPECT_GT(result.cloned_requests, 0U);
}

TEST(Experiment, ResourceAuditMatchesPaperScale) {
  // §4.1: 7 stages, ~1 MB SRAM (~4.8% of the ASIC) with 2 x 2^17 slots.
  Experiment experiment{small_cluster(Scheme::kNetClone, 0.1)};
  const auto report = pisa::audit(experiment.tor().pipeline());
  EXPECT_EQ(report.stages_used, 7U);
  EXPECT_NEAR(report.sram_fraction, 0.0477, 0.005);
}

}  // namespace
}  // namespace netclone::harness

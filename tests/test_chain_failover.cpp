// Chain fail-over and rejoin on the replicated aggregation tier: killing
// and re-admitting every chain position (head, middle, tail) must keep
// the extended auditor clean, reproduce bit-identical chaos digests on a
// same-seed rerun, move the verdict authority when the tail dies, and
// resync a rejoined replica to the exact soft-state image of the
// survivors. The randomized quick sweep at the end is the tier-1 slice
// of the full multi-rack chaos lane (test_multirack_chaos.cpp, slow
// label).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/faults.hpp"
#include "harness/invariants.hpp"
#include "harness/multirack.hpp"
#include "harness/scenario.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

namespace netclone::harness {
namespace {

// Three replicas so head (agg0), middle (agg1), and tail (agg2) are
// distinct chain positions; two server racks so candidate pairs span
// racks while duplicates are in flight across the pod.
MultiRackConfig pod_config(std::uint64_t seed) {
  MultiRackConfig cfg;
  cfg.server_racks = 2;
  cfg.servers_per_rack = 2;
  cfg.num_aggs = 3;
  cfg.agg_mode = AggMode::kReplicated;
  cfg.workers = 4;
  cfg.num_clients = 4;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::milliseconds(1);
  cfg.measure = SimTime::milliseconds(5);
  cfg.drain = SimTime::milliseconds(6);
  cfg.seed = seed;
  cfg.offered_rps =
      0.4 * cluster_capacity_rps({4, 4, 4, 4}, 25.0 * 1.14);
  // Retransmission absorbs the losses a crash inflicts (requests sprayed
  // at the corpse, responses that died inside it).
  cfg.client_template.retransmit_timeout = SimTime::microseconds(400.0);
  cfg.client_template.max_retransmits = 6;
  return cfg;
}

FaultPlan kill_and_rejoin(std::size_t replica) {
  const std::string target = "agg" + std::to_string(replica);
  FaultPlan plan;
  plan.events.push_back(parse_fault_entry("at=2ms agg_fail " + target));
  plan.events.push_back(parse_fault_entry("at=3500us agg_rejoin " + target));
  return plan;
}

struct RunOutcome {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t completed = 0;
};

RunOutcome run_and_check(const MultiRackConfig& cfg, std::size_t rejoined,
                         const std::string& what) {
  MultiRackExperiment exp{cfg};
  const ExperimentResult result = exp.run();

  const InvariantReport report = audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << what << ":\n" << report.to_string();

  const ChainController* ctrl = exp.chain_controller();
  EXPECT_NE(ctrl, nullptr);
  std::vector<std::size_t> members;
  if (ctrl != nullptr) {
    EXPECT_TRUE(ctrl->quiescent()) << what;
    EXPECT_EQ(ctrl->fails_of(rejoined), 1u);
    members = ctrl->admitted_members();
  }
  EXPECT_EQ(members.size(), cfg.num_aggs)
      << what << ": the rejoined replica never re-admitted";

  // Resync correctness: the rejoined node carries the exact soft-state
  // image of every survivor, and its filter table holds no more live
  // fingerprints than the survivors' (bounded, not accreted).
  const auto& rejoined_program = exp.agg_netclone_program(rejoined);
  EXPECT_TRUE(rejoined_program.chain_member());
  for (const std::size_t a : members) {
    EXPECT_EQ(exp.agg_netclone_program(a).soft_state_digest(),
              rejoined_program.soft_state_digest())
        << what << ": agg" << a << " diverged from the rejoined replica";
    EXPECT_EQ(exp.agg_netclone_program(a).filter_occupancy(),
              rejoined_program.filter_occupancy())
        << what;
  }
  EXPECT_GT(rejoined_program.stats().chain_sync_installs, 0u)
      << "rejoin never installed a snapshot";

  RunOutcome out;
  out.digest = chaos_digest(exp);
  out.executed = exp.executed_events();
  out.completed = result.completed;
  return out;
}

/// Kills and rejoins chain position `replica` on three seeds, each run
/// twice with every check; the rerun must reproduce the first run.
void expect_kill_and_rejoin_converges(std::size_t replica,
                                      const std::string& position) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    MultiRackConfig cfg = pod_config(seed);
    cfg.faults = kill_and_rejoin(replica);
    const std::string what = position + " seed " + std::to_string(seed);
    const RunOutcome first = run_and_check(cfg, replica, what);
    EXPECT_GT(first.completed, 0u) << what << ": nothing completed";
    const RunOutcome again = run_and_check(cfg, replica, what + " rerun");
    EXPECT_EQ(again.digest, first.digest) << what << ": digest diverged";
    EXPECT_EQ(again.executed, first.executed)
        << what << ": executed_events diverged";
    EXPECT_EQ(again.completed, first.completed)
        << what << ": completions diverged";
  }
}

TEST(ChainFailover, HeadKillAndRejoinConverges) {
  expect_kill_and_rejoin_converges(0, "head");
}

TEST(ChainFailover, MiddleKillAndRejoinConverges) {
  expect_kill_and_rejoin_converges(1, "middle");
}

TEST(ChainFailover, TailKillAndRejoinConverges) {
  expect_kill_and_rejoin_converges(2, "tail");
}

TEST(ChainFailover, TailDeathMovesVerdictAuthority) {
  // Kill the tail and do NOT rejoin it: the predecessor must take over
  // as the verdict authority and keep enacting filter verdicts — none
  // lost (duplicates would leak to clients and fail the client-side
  // exactly-once audit) and none enacted twice (the corpse's counter is
  // frozen; only one live tail exists at any instant).
  MultiRackConfig cfg = pod_config(11);
  cfg.faults.events.push_back(parse_fault_entry("at=2ms agg_fail agg2"));
  MultiRackExperiment exp{cfg};
  const ExperimentResult result = exp.run();
  EXPECT_GT(result.completed, 0u);

  const auto& old_tail = exp.agg_netclone_program(2);
  const auto& new_tail = exp.agg_netclone_program(1);
  EXPECT_FALSE(old_tail.chain_member());
  EXPECT_TRUE(new_tail.is_chain_tail());
  EXPECT_FALSE(exp.agg_netclone_program(0).is_chain_tail());
  // Both tails enacted verdicts during their reign.
  EXPECT_GT(old_tail.stats().filtered_responses, 0u);
  EXPECT_GT(new_tail.stats().filtered_responses, 0u);
  // The new tail only enacts verdicts it computed itself.
  EXPECT_LE(new_tail.stats().filtered_responses,
            new_tail.stats().filter_hits);

  const ChainController* ctrl = exp.chain_controller();
  ASSERT_NE(ctrl, nullptr);
  EXPECT_EQ(ctrl->admitted_members(), (std::vector<std::size_t>{0, 1}));
  const InvariantReport report = audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ChainFailover, SurvivorsStayConvergentWithoutRejoin) {
  // A mid-chain death with no rejoin: the spliced chain (head, tail)
  // must still converge — the reconcile marker repaired whatever the
  // successor missed around the crash.
  MultiRackConfig cfg = pod_config(12);
  cfg.faults.events.push_back(parse_fault_entry("at=2ms agg_fail agg1"));
  MultiRackExperiment exp{cfg};
  const ExperimentResult result = exp.run();
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(exp.agg_netclone_program(0).soft_state_digest(),
            exp.agg_netclone_program(2).soft_state_digest());
  // The reconcile marker walked the spliced chain: filled at the head,
  // installed (or skipped as stale) downstream.
  EXPECT_GT(exp.agg_netclone_program(0).stats().chain_sync_snapshots_filled,
            0u);
  EXPECT_GT(exp.agg_netclone_program(2).stats().chain_sync_markers, 0u);
  const InvariantReport report = audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ChainFailover, QuickChaosSweepIsAuditCleanAndReproducible) {
  // Randomized fail/rejoin schedules (positions and instants drawn from
  // a per-seed stream, spaced by the installer's contract) must stay
  // audit-clean and digest-identical on a same-seed rerun.
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    Rng rng{seed * 7919};
    MultiRackConfig cfg = pod_config(seed);
    const std::size_t victim = rng.next_below(3);
    const double fail_us = 1500.0 + 1000.0 * rng.next_double();
    const double rejoin_us = fail_us + 800.0 + 400.0 * rng.next_double();
    FaultEvent fail;
    fail.at = SimTime::microseconds(fail_us);
    fail.action = FaultAction::kAggFail;
    fail.target = "agg" + std::to_string(victim);
    FaultEvent rejoin;
    rejoin.at = SimTime::microseconds(rejoin_us);
    rejoin.action = FaultAction::kAggRejoin;
    rejoin.target = fail.target;
    cfg.faults.events = {fail, rejoin};
    if (rng.next_below(2) == 0) {
      // Sometimes a second, later fail of a different replica (left
      // dead) on top of the rejoin.
      FaultEvent second;
      second.at = SimTime::microseconds(rejoin_us + 900.0);
      second.action = FaultAction::kAggFail;
      second.target = "agg" + std::to_string((victim + 1) % 3);
      cfg.faults.events.push_back(second);
    }

    const auto audited_digest = [&] {
      MultiRackExperiment exp{cfg};
      (void)exp.run();
      const InvariantReport report = audit_invariants(exp);
      EXPECT_TRUE(report.ok())
          << "seed " << seed << ":\n" << report.to_string();
      return chaos_digest(exp);
    };
    EXPECT_EQ(audited_digest(), audited_digest()) << "seed " << seed;
  }
}

TEST(ChainFailover, ScenarioCarriesFaultsToTheFatTree) {
  // The scenario front end accepts fat-tree fault lines and threads them
  // into MultiRackConfig — the sweep runs the fail-over under load.
  const Scenario s = parse_scenario(R"(
    scheme = netclone
    racks = 2
    servers_per_rack = 2
    aggs = 3
    agg_mode = replicated
    workers = 4
    clients = 4
    loads = 0.4
    measure_ms = 5
    warmup_ms = 1
    fault = at=2ms agg_fail agg1
    fault = at=3500us agg_rejoin agg1
  )");
  ASSERT_EQ(s.faults.events.size(), 2u);
  const MultiRackConfig cfg = s.build_multirack_config();
  EXPECT_EQ(cfg.faults.events.size(), 2u);
  const auto points = s.run();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_GT(points[0].result.completed, 0u);
}

}  // namespace
}  // namespace netclone::harness

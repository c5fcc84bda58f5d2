// Determinism and correctness of the fat-tree harness: for both
// aggregation modes, a same-seed rerun must reproduce the run bit for
// bit with a clean audit and balanced frame pool (and each pod must match
// its recorded golden pin); in replicated mode a
// clone must actually cross racks through the NetClone-aware
// aggregation tier and every chain replica must converge to the
// identical soft-state image (the auditor's replica-convergence
// invariant). The flash-crowd scenario below runs the generated traffic
// shape end to end under the auditor.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/invariants.hpp"
#include "harness/multirack.hpp"
#include "harness/scenario.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

namespace netclone::harness {
namespace {

MultiRackConfig fattree_config(AggMode mode) {
  MultiRackConfig cfg;
  cfg.server_racks = 2;
  cfg.servers_per_rack = 2;
  cfg.num_aggs = 2;
  cfg.agg_mode = mode;
  cfg.workers = 4;
  cfg.num_clients = 2;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::milliseconds(1);
  cfg.measure = SimTime::milliseconds(5);
  cfg.drain = SimTime::milliseconds(4);
  cfg.seed = 11;
  cfg.offered_rps =
      0.5 * cluster_capacity_rps({4, 4, 4, 4}, 25.0 * 1.14);
  return cfg;
}

struct RunOutcome {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t completed = 0;
  std::int64_t p99_ns = 0;
};

RunOutcome audited_run(const MultiRackConfig& cfg) {
  MultiRackExperiment exp{cfg};
  const ExperimentResult result = exp.run();

  const InvariantReport report = audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
  for (const wire::FramePool::Stats& pool : exp.frame_pool_stats()) {
    EXPECT_LE(pool.released, pool.acquired);
    EXPECT_EQ(pool.live, pool.acquired - pool.released);
  }

  RunOutcome out;
  out.digest = chaos_digest(exp);
  out.executed = exp.executed_events();
  out.completed = result.completed;
  out.p99_ns = result.p99.ns();
  return out;
}

void expect_same_seed_rerun_identical(const MultiRackConfig& cfg,
                                      const char* what) {
  const RunOutcome first = audited_run(cfg);
  EXPECT_GT(first.completed, 0u) << what << ": nothing completed";
  const RunOutcome again = audited_run(cfg);
  EXPECT_EQ(again.digest, first.digest) << what << ": digest diverged";
  EXPECT_EQ(again.executed, first.executed)
      << what << ": executed_events diverged";
  EXPECT_EQ(again.completed, first.completed)
      << what << ": completions diverged";
  EXPECT_EQ(again.p99_ns, first.p99_ns) << what << ": p99 diverged";
}

TEST(FatTree, ObliviousSameSeedRerunsAreIdentical) {
  expect_same_seed_rerun_identical(fattree_config(AggMode::kOblivious),
                                   "oblivious");
}

TEST(FatTree, ReplicatedSameSeedRerunsAreIdentical) {
  expect_same_seed_rerun_identical(fattree_config(AggMode::kReplicated),
                                   "replicated");
}

TEST(FatTree, ReplicatedGoldenPin) {
  // Pins what the pod computes across commits, where the rerun test above
  // only compares a run with itself. Re-recorded when links began taking
  // frames with a ready time: executed events fell, and the digest moved
  // only through its fold of that count.
  const RunOutcome run =
      audited_run(fattree_config(AggMode::kReplicated));
  EXPECT_EQ(run.digest, 11912010506036592716ULL);
  EXPECT_EQ(run.completed, 1426u);
  EXPECT_EQ(run.p99_ns, 160768);
  EXPECT_EQ(run.executed, 29941u);
}

TEST(FatTree, ObliviousGoldenPin) {
  // The oblivious pod's counterpart of the pin above: holds the client
  // ToR's cloning, wired by its core::Controller, across commits.
  const RunOutcome run = audited_run(fattree_config(AggMode::kOblivious));
  EXPECT_EQ(run.digest, 13241905335124404977ULL);
  EXPECT_EQ(run.completed, 1423u);
  EXPECT_EQ(run.p99_ns, 154624);
  EXPECT_EQ(run.executed, 29328u);
}

TEST(FatTree, ReplicatedTierClonesAcrossRacks) {
  // Low load: nearly every request is cloned at the aggregation tier.
  // Candidate pairs span racks (sids 0-1 rack 0, 2-3 rack 1), so every
  // server must see executed work and the replicas must report clones.
  MultiRackConfig cfg = fattree_config(AggMode::kReplicated);
  cfg.offered_rps = 30000.0;
  // Enough distinct client IPs that the source-hashed ECMP spray covers
  // both replicas.
  cfg.num_clients = 4;
  MultiRackExperiment exp{cfg};
  const ExperimentResult result = exp.run();
  EXPECT_GT(result.completed, 0u);

  std::uint64_t cloned = 0;
  for (std::size_t a = 0; a < exp.num_aggs(); ++a) {
    const auto& stats = exp.agg_netclone_program(a).stats();
    cloned += stats.cloned_requests;
    EXPECT_GT(stats.requests, 0u) << "replica " << a << " saw no requests";
  }
  EXPECT_GT(cloned, 0u);
  for (const host::Server* server : exp.servers()) {
    EXPECT_GT(server->stats().completed, 0u) << value_of(server->sid());
  }
  // Cloning happens only in the aggregation tier: rack ToRs forward.
  for (std::size_t rack = 0; rack < cfg.server_racks; ++rack) {
    EXPECT_EQ(exp.server_tor_program(rack).stats().cloned_requests, 0u);
  }
  // Exactly-once at the clients even with cross-rack duplicates in
  // flight: the chain tail filtered every duplicate.
  EXPECT_EQ(result.redundant_responses, 0u);
  const InvariantReport report = audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FatTree, ChainReplicasConverge) {
  MultiRackConfig cfg = fattree_config(AggMode::kReplicated);
  MultiRackExperiment exp{cfg};
  (void)exp.run();
  const auto& head = exp.agg_netclone_program(0);
  EXPECT_GT(head.stats().responses, 0u);
  for (std::size_t a = 1; a < exp.num_aggs(); ++a) {
    const auto& replica = exp.agg_netclone_program(a);
    EXPECT_EQ(replica.stats().responses, head.stats().responses)
        << "replica " << a << " applied a different response stream";
    EXPECT_EQ(replica.soft_state_digest(), head.soft_state_digest())
        << "replica " << a << " diverged from the head";
    // Everything the head forwarded down the chain reached this replica.
    EXPECT_GT(replica.stats().chain_forwards +
                  exp.agg_netclone_program(a - 1).stats().chain_forwards,
              0u);
  }
}

TEST(FatTree, FlashCrowdScenarioUnderAuditor) {
  // A skewed flash crowd on the replicated tier, built through the
  // scenario generator.
  const Scenario s = parse_scenario(R"(
    scheme = netclone
    racks = 2
    servers_per_rack = 2
    aggs = 2
    agg_mode = replicated
    workers = 4
    clients = 2
    loads = 0.4
    measure_ms = 5
    warmup_ms = 1
    shape = flash
    flash_at_ms = 2
    flash_len_ms = 2
    flash_x = 3
    skew = 0.8
  )");
  MultiRackConfig cfg = s.build_multirack_config();
  cfg.offered_rps = 0.4 * s.capacity_rps();
  MultiRackExperiment exp{cfg};
  const ExperimentResult result = exp.run();
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.redundant_responses, 0u);
  const InvariantReport report = audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // The crowd is visible: the same scenario without the flash sends
  // measurably fewer requests at the same base rate and seed.
  Scenario steady = s;
  steady.shape = "steady";
  MultiRackConfig steady_cfg = steady.build_multirack_config();
  steady_cfg.offered_rps = cfg.offered_rps;
  MultiRackExperiment steady_exp{steady_cfg};
  const ExperimentResult steady_result = steady_exp.run();
  EXPECT_GT(result.requests_sent, steady_result.requests_sent);
}

TEST(FatTree, ScenarioSweepRunsOnFatTree) {
  Scenario s = parse_scenario(R"(
    scheme = netclone
    racks = 2
    servers_per_rack = 2
    workers = 4
    clients = 1
    loads = 0.3
    measure_ms = 4
    warmup_ms = 1
    title = fat-tree tiny
  )");
  const auto points = s.run();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_GT(points[0].result.completed, 0u);
  EXPECT_GT(points[0].result.cloned_requests, 0u);
}

}  // namespace
}  // namespace netclone::harness

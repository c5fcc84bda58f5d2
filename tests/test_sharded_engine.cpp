// Determinism contract of the sharded engine: for any shard count N
// (including 1, and the unsharded legacy engine), a same-seed run must
// produce bit-identical results — same chaos digest, same
// executed_events, same per-request outcomes. The suite drives the
// same cluster through NETCLONE_SHARDS ∈ {1, 2, 4, 7} equivalents via
// ClusterConfig::num_shards for a fig7-style point, three randomized
// chaos fault plans, and link impairments, then property-tests random
// shard assignments against the single-queue reference. Frame-pool
// balance is checked per shard on every run.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chaos_util.hpp"
#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "harness/faults.hpp"
#include "harness/invariants.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "sim/sharded.hpp"
#include "wire/framebuf.hpp"

namespace netclone {
namespace {

// The legacy engine (0) and the interesting shard counts: the sharded
// machinery on one queue, an even split, more shards than a worker
// count, and a prime that leaves the round-robin unbalanced.
constexpr std::size_t kShardCounts[] = {0, 1, 2, 4, 7};

struct RunOutcome {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t completed = 0;
  std::int64_t p99_ns = 0;
};

/// Runs `cfg` on `shards` event queues (0 = legacy single-queue engine,
/// unless NETCLONE_SHARDS overrides it in the environment — the
/// sharded-lane CI runs do exactly that), audits the invariants, and
/// verifies every shard pool balanced before returning the fingerprint.
RunOutcome run_with_shards(harness::ClusterConfig cfg, std::size_t shards,
                          std::vector<std::uint32_t> assignment = {}) {
  cfg.num_shards = shards;
  cfg.shard_assignment = std::move(assignment);
  harness::Experiment exp{cfg};
  const harness::ExperimentResult result = exp.run();

  const harness::InvariantReport report = harness::audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << "shards=" << shards << ":\n"
                           << report.to_string();

  // Per-shard pool balance at end of run: everything acquired during
  // the run has been released or is still live (held by parked state),
  // and the books agree pool by pool.
  for (const wire::FramePool::Stats& pool : exp.frame_pool_stats()) {
    EXPECT_LE(pool.released, pool.acquired) << "shards=" << shards;
    EXPECT_EQ(pool.live, pool.acquired - pool.released)
        << "shards=" << shards;
  }

  RunOutcome out;
  out.digest = harness::chaos_digest(exp);
  out.executed = exp.executed_events();
  out.completed = result.completed;
  out.p99_ns = result.p99.ns();
  return out;
}

/// Asserts every shard count reproduces the legacy run bit for bit.
void expect_identical_across_shards(const harness::ClusterConfig& cfg,
                                    const char* what) {
  const RunOutcome reference = run_with_shards(cfg, kShardCounts[0]);
  EXPECT_GT(reference.completed, 0u) << what << ": nothing completed";
  for (std::size_t i = 1; i < std::size(kShardCounts); ++i) {
    const std::size_t shards = kShardCounts[i];
    const RunOutcome outcome = run_with_shards(cfg, shards);
    EXPECT_EQ(outcome.digest, reference.digest)
        << what << ": digest diverged at " << shards << " shards";
    EXPECT_EQ(outcome.executed, reference.executed)
        << what << ": executed_events diverged at " << shards << " shards";
    EXPECT_EQ(outcome.completed, reference.completed)
        << what << ": completions diverged at " << shards << " shards";
    EXPECT_EQ(outcome.p99_ns, reference.p99_ns)
        << what << ": p99 diverged at " << shards << " shards";
  }
}

/// A fig7-style point scaled down for tier1: NetClone scheme, Exp(25)
/// service, enough load for cloning + filtering to happen constantly.
harness::ClusterConfig fig7_style_cluster() {
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.server_workers = {4, 4, 4, 4};
  cfg.num_clients = 3;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::microseconds(500.0);
  cfg.measure = SimTime::milliseconds(3);
  cfg.drain = SimTime::milliseconds(2);
  cfg.seed = 7;
  const double capacity =
      harness::cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);
  cfg.offered_rps = 0.8 * capacity;
  return cfg;
}

TEST(ShardedEngine, Fig7DigestsMatchAcrossShardCounts) {
  expect_identical_across_shards(fig7_style_cluster(), "fig7");
}

// Three PR-5 randomized fault plans (crashes, pauses, outages, switch
// reboots, stale filter injection) — the chaos machinery end to end.
TEST(ShardedEngine, ChaosFaultPlansMatchAcrossShardCounts) {
  for (std::uint64_t combo = 0; combo < 3; ++combo) {
    harness::ClusterConfig cfg =
        netclone::testing::chaos_cluster(/*seed=*/2000 + combo);
    Rng plan_rng{0xC0FFEE ^ (7000 + combo)};
    cfg.faults = netclone::testing::random_fault_plan(
        plan_rng, cfg.server_workers.size(), cfg.num_clients);
    expect_identical_across_shards(cfg, "chaos combo");
  }
}

// Link impairments are the sharp edge of the cross-shard boundary: drops
// and duplication consume sender RNG draws, and reordering mutates
// frames already handed to the mailbox (the late-freeze protocol).
TEST(ShardedEngine, LinkImpairmentsMatchAcrossShardCounts) {
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(/*seed=*/31);
  using harness::FaultAction;
  using harness::FaultEvent;
  const auto impair = [&cfg](const std::string& link, FaultAction action,
                             double value, double at_us) {
    FaultEvent ev;
    ev.target = link;
    ev.action = action;
    ev.value = value;
    ev.at = SimTime::microseconds(at_us);
    cfg.faults.events.push_back(ev);
  };
  impair("sw0-s0", FaultAction::kReorderRate, 0.05, 600.0);
  impair("c0-sw0", FaultAction::kReorderRate, 0.04, 650.0);
  impair("s1-sw0", FaultAction::kDropRate, 0.02, 700.0);
  impair("sw0-c1", FaultAction::kDuplicateRate, 0.03, 750.0);
  impair("sw0-s2", FaultAction::kCorruptRate, 0.02, 800.0);
  expect_identical_across_shards(cfg, "impairments");
}

// Property test: the digest must not depend on WHERE hosts live. Random
// assignments scatter servers and clients over the shards (including
// piling everything onto one shard, and splitting chatty pairs), and
// every assignment must reproduce the single-queue reference.
TEST(ShardedEngine, RandomShardAssignmentsMatchSingleQueueReference) {
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(/*seed=*/55);
  Rng plan_rng{0xBADF00D};
  cfg.faults = netclone::testing::random_fault_plan(
      plan_rng, cfg.server_workers.size(), cfg.num_clients);

  const RunOutcome reference = run_with_shards(cfg, 1);
  EXPECT_GT(reference.completed, 0u);

  const std::size_t num_hosts = cfg.server_workers.size() + cfg.num_clients;
  Rng assign_rng{0xA551671};
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t shards = 2 + assign_rng.next_below(4);  // 2..5
    std::vector<std::uint32_t> assignment(num_hosts);
    for (std::uint32_t& shard : assignment) {
      shard = static_cast<std::uint32_t>(assign_rng.next_below(shards));
    }
    const RunOutcome outcome =
        run_with_shards(cfg, shards, assignment);
    EXPECT_EQ(outcome.digest, reference.digest)
        << "trial " << trial << " (" << shards << " shards)";
    EXPECT_EQ(outcome.executed, reference.executed)
        << "trial " << trial << " (" << shards << " shards)";
  }
}

// The pool books must balance per shard (plus the experiment's own pool,
// listed last), and a sharded experiment must never allocate from the
// process-wide pool.
TEST(ShardedEngine, FramePoolsBalancePerShard) {
  const wire::FramePool::Stats process_pool_before =
      wire::FramePool::instance().stats();
  {
    harness::ClusterConfig cfg = fig7_style_cluster();
    cfg.num_shards = 4;
    harness::Experiment exp{cfg};
    (void)exp.run();
    const auto pools = exp.frame_pool_stats();
    ASSERT_EQ(pools.size(), 5u);
    netclone::testing::expect_own_pools_balance(pools, "4 shards");
    // Hosts live on shards 1..3, so traffic pools are actually used.
    EXPECT_GT(pools[1].acquired + pools[2].acquired + pools[3].acquired, 0u);
  }
  netclone::testing::expect_process_pool_untouched(process_pool_before,
                                                   "4 shards");
}

// Same-seed sharded runs must agree with each other too (worker-thread
// interleavings, when there are threads, must be invisible).
TEST(ShardedEngine, SameSeedShardedRunsAreIdentical) {
  harness::ClusterConfig cfg = netclone::testing::chaos_cluster(/*seed=*/91);
  Rng plan_rng{0x5EED};
  cfg.faults = netclone::testing::random_fault_plan(
      plan_rng, cfg.server_workers.size(), cfg.num_clients);
  const RunOutcome first = run_with_shards(cfg, 4);
  const RunOutcome second = run_with_shards(cfg, 4);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.executed, second.executed);
}

}  // namespace
}  // namespace netclone

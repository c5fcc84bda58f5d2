// Multi-rack chaos sweep (slow lane): randomized cluster-wide fault
// plans — chain fail/rejoin schedules layered with rack blinks and trunk
// impairments — must keep the extended auditor clean on every combo and
// reproduce bit-identical chaos digests on a same-seed rerun. The tier-1
// slice of this sweep lives in test_chain_failover.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/faults.hpp"
#include "harness/invariants.hpp"
#include "harness/multirack.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

namespace netclone::harness {
namespace {

MultiRackConfig chaos_pod(std::uint64_t seed) {
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
  cfg.measure = SimTime::milliseconds(6);
  cfg.drain = SimTime::milliseconds(7);
  cfg.seed = seed;
  cfg.offered_rps =
      0.35 * cluster_capacity_rps({4, 4, 4, 4}, 25.0 * 1.14);
  cfg.client_template.retransmit_timeout = SimTime::microseconds(400.0);
  cfg.client_template.max_retransmits = 6;
  return cfg;
}

/// One fail/rejoin schedule plus optional rack and trunk chaos, every
/// draw from `rng` so a combo index always produces the same plan.
/// Chain events respect the installer's spacing contract: successive
/// chain faults sit >= 800us apart, far beyond chain_sync_delay (50us)
/// plus residual flight time.
FaultPlan random_pod_plan(Rng& rng) {
  FaultPlan plan;
  const auto push = [&plan](SimTime at, FaultAction action,
                            const std::string& target, double value = 0.0) {
    FaultEvent ev;
    ev.at = at;
    ev.action = action;
    ev.target = target;
    ev.value = value;
    plan.events.push_back(ev);
  };

  const std::size_t victim = rng.next_below(3);
  const std::string victim_name = "agg" + std::to_string(victim);
  const double fail_us = 1500.0 + 1500.0 * rng.next_double();
  push(SimTime::microseconds(fail_us), FaultAction::kAggFail, victim_name);
  double chain_cursor_us = fail_us;
  if (rng.next_below(4) != 0) {  // usually rejoin, sometimes leave dead
    chain_cursor_us += 800.0 + 600.0 * rng.next_double();
    push(SimTime::microseconds(chain_cursor_us), FaultAction::kAggRejoin,
         victim_name);
    if (rng.next_below(2) == 0) {
      // Second fail-over on the reshaped chain.
      chain_cursor_us += 800.0 + 400.0 * rng.next_double();
      push(SimTime::microseconds(chain_cursor_us), FaultAction::kAggFail,
           "agg" + std::to_string((victim + 1 + rng.next_below(2)) % 3));
    }
  }

  if (rng.next_below(2) == 0) {
    // A rack blink, independent of the chain schedule.
    const std::string rack = "rack" + std::to_string(rng.next_below(2));
    const double down_us = 1000.0 + 2000.0 * rng.next_double();
    push(SimTime::microseconds(down_us), FaultAction::kRackDown, rack);
    push(SimTime::microseconds(down_us + 300.0 + 500.0 * rng.next_double()),
         FaultAction::kRackUp, rack);
  }
  if (rng.next_below(2) == 0) {
    // Lossy trunk between the client ToR and a replica.
    push(SimTime::microseconds(500.0 + 1000.0 * rng.next_double()),
         FaultAction::kDropRate,
         "tor1-agg" + std::to_string(rng.next_below(3)),
         0.01 + 0.03 * rng.next_double());
  }
  return plan;
}

struct ComboOutcome {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
};

ComboOutcome run_combo(const MultiRackConfig& cfg, std::uint64_t combo) {
  MultiRackExperiment exp{cfg};
  (void)exp.run();
  const InvariantReport report = audit_invariants(exp);
  EXPECT_TRUE(report.ok()) << "combo " << combo << ":\n"
                           << report.to_string();
  for (const wire::FramePool::Stats& pool : exp.frame_pool_stats()) {
    EXPECT_EQ(pool.live, pool.acquired - pool.released) << "combo " << combo;
  }
  ComboOutcome out;
  out.digest = chaos_digest(exp);
  out.executed = exp.executed_events();
  return out;
}

TEST(MultiRackChaos, RandomizedFailoverPlansAreAuditCleanAndReproducible) {
  for (std::uint64_t combo = 0; combo < 12; ++combo) {
    Rng rng{0x9E3779B97F4A7C15ULL ^ (combo * 2654435761ULL)};
    MultiRackConfig cfg = chaos_pod(100 + combo);
    cfg.faults = random_pod_plan(rng);

    // Same seed, same plan: bit-identical rerun.
    const ComboOutcome first = run_combo(cfg, combo);
    const ComboOutcome again = run_combo(cfg, combo);
    EXPECT_EQ(again.digest, first.digest)
        << "combo " << combo << ": rerun diverged";
    EXPECT_EQ(again.executed, first.executed)
        << "combo " << combo << ": executed_events diverged";
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace netclone::harness

// Shared machinery for the chaos-sweep tests: a small NetClone cluster
// with TCP-mode retransmission armed, a randomized-but-deterministic
// fault-plan generator, and the per-combo contract (auditor clean, two
// same-seed runs produce identical digests, each experiment's frame
// pools balance and the process-wide pool is never touched).
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "harness/faults.hpp"
#include "harness/invariants.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "wire/framebuf.hpp"

namespace netclone::testing {

inline harness::ClusterConfig chaos_cluster(std::uint64_t seed) {
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.server_workers = {4, 4, 4};
  cfg.num_clients = 2;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::microseconds(500.0);
  cfg.measure = SimTime::milliseconds(2);
  cfg.drain = SimTime::milliseconds(3);
  cfg.seed = seed;
  // Retransmission keeps the run making progress through the faults (and
  // exercises the backoff machinery under chaos).
  cfg.netclone.id_mode = core::RequestIdMode::kClientTuple;
  cfg.client_template.retransmit_timeout = SimTime::microseconds(400.0);
  cfg.client_template.max_retransmits = 4;
  const double capacity =
      harness::cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);
  cfg.offered_rps = 0.35 * capacity;
  return cfg;
}

/// "s3"-style node name, built by append rather than operator+ to dodge
/// a GCC 12 -Wrestrict false positive on char* + to_string temporaries.
inline std::string chaos_node_name(char prefix, std::uint64_t index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

/// Builds a randomized fault plan from a dedicated RNG stream. Every
/// draw is taken from `rng` only, so one combo index always produces
/// the same plan.
inline harness::FaultPlan random_fault_plan(Rng& rng,
                                            std::size_t num_servers,
                                            std::size_t num_clients) {
  using harness::FaultAction;
  using harness::FaultEvent;

  harness::FaultPlan plan;
  const auto at_us = [&rng](double lo, double hi) {
    return SimTime::microseconds(lo + (hi - lo) * rng.next_double());
  };
  const auto random_server = [&] {
    return chaos_node_name('s', rng.next_below(num_servers));
  };
  const auto random_link = [&](std::string* name) {
    const bool server_side = rng.next_below(2) == 0;
    const bool toward_switch = rng.next_below(2) == 0;
    const std::string host =
        server_side ? random_server()
                    : chaos_node_name('c', rng.next_below(num_clients));
    *name = toward_switch ? host + "-sw0" : "sw0-" + host;
  };

  const std::size_t num_events = 2 + rng.next_below(4);
  for (std::size_t i = 0; i < num_events; ++i) {
    FaultEvent ev;
    ev.at = at_us(600.0, 3500.0);
    switch (rng.next_below(9)) {
      case 0: {  // link outage with recovery
        random_link(&ev.target);
        ev.action = FaultAction::kLinkDown;
        FaultEvent up = ev;
        up.action = FaultAction::kLinkUp;
        up.at = ev.at + SimTime::microseconds(200.0 +
                                              600.0 * rng.next_double());
        plan.events.push_back(up);
        break;
      }
      case 1:
        random_link(&ev.target);
        ev.action = FaultAction::kDropRate;
        ev.value = 1e-3 + 5e-2 * rng.next_double();
        break;
      case 2:
        random_link(&ev.target);
        ev.action = FaultAction::kCorruptRate;
        ev.value = 1e-3 + 5e-2 * rng.next_double();
        break;
      case 3:
        random_link(&ev.target);
        ev.action = rng.next_below(2) == 0 ? FaultAction::kReorderRate
                                           : FaultAction::kDuplicateRate;
        ev.value = 1e-3 + 2e-2 * rng.next_double();
        break;
      case 4: {  // server crash, usually restarted
        ev.target = random_server();
        ev.action = FaultAction::kServerCrash;
        if (rng.next_below(4) != 0) {
          FaultEvent restart = ev;
          restart.action = FaultAction::kServerRestart;
          restart.at =
              ev.at + SimTime::microseconds(300.0 +
                                            700.0 * rng.next_double());
          plan.events.push_back(restart);
        }
        break;
      }
      case 5: {  // server pause/resume
        ev.target = random_server();
        ev.action = FaultAction::kServerPause;
        FaultEvent resume = ev;
        resume.action = FaultAction::kServerResume;
        resume.at = ev.at + SimTime::microseconds(100.0 +
                                                  400.0 * rng.next_double());
        plan.events.push_back(resume);
        break;
      }
      case 6:
        ev.target = random_server();
        ev.action = FaultAction::kServerSlowdown;
        ev.value = 1.5 + 3.0 * rng.next_double();
        break;
      case 7: {  // switch reboot (fail + recover)
        ev.target = "sw0";
        ev.action = FaultAction::kSwitchFail;
        FaultEvent recover = ev;
        recover.action = FaultAction::kSwitchRecover;
        recover.at = ev.at + SimTime::microseconds(200.0 +
                                                   500.0 * rng.next_double());
        plan.events.push_back(recover);
        break;
      }
      default:
        ev.target = "sw0";
        if (rng.next_below(2) == 0) {
          ev.action = FaultAction::kSwitchWipe;
        } else {
          ev.action = FaultAction::kFilterStale;
          ev.table = rng.next_below(2);
          ev.value = static_cast<double>(1 + rng.next_below(1u << 20));
        }
        break;
    }
    plan.events.push_back(ev);
  }
  return plan;
}

/// Every pool an experiment owns balances, and its traffic really went
/// through them — a balance sheet nobody wrote to would prove nothing.
inline void expect_own_pools_balance(
    const std::vector<wire::FramePool::Stats>& pools,
    const std::string& who) {
  std::uint64_t acquired = 0;
  for (std::size_t i = 0; i < pools.size(); ++i) {
    EXPECT_LE(pools[i].released, pools[i].acquired) << who << " pool " << i;
    EXPECT_EQ(pools[i].live, pools[i].acquired - pools[i].released)
        << who << " pool " << i;
    acquired += pools[i].acquired;
  }
  EXPECT_GT(acquired, 0U) << who << ": no frame came from its own pools";
}

/// Experiments allocate only from pools they own, so the process-wide
/// pool's books must not move across their lifetime. (A frame leaked at
/// teardown is caught by the sanitizer lanes: LeakSanitizer reports the
/// unreleased buffer, and a release after its pool died is a
/// use-after-free.)
inline void expect_process_pool_untouched(
    const wire::FramePool::Stats& before, const std::string& who) {
  const wire::FramePool::Stats& now = wire::FramePool::instance().stats();
  EXPECT_EQ(now.acquired, before.acquired) << who;
  EXPECT_EQ(now.released, before.released) << who;
  EXPECT_EQ(now.live, before.live) << who;
}

/// One sweep combo: run the plan, audit, re-run with the same seed and
/// compare digests, and verify each experiment's own pool balance sheets.
inline void run_chaos_combo(std::uint64_t combo) {
  const wire::FramePool::Stats process_pool_before =
      wire::FramePool::instance().stats();
  const std::string who = "combo " + std::to_string(combo);

  harness::ClusterConfig cfg = chaos_cluster(/*seed=*/1000 + combo);
  Rng plan_rng{0xC0FFEE ^ combo};
  cfg.faults = random_fault_plan(plan_rng, cfg.server_workers.size(),
                                 cfg.num_clients);

  std::uint64_t digest1 = 0;
  std::uint64_t digest2 = 0;
  {
    harness::Experiment exp{cfg};
    (void)exp.run();
    const harness::InvariantReport report = harness::audit_invariants(exp);
    EXPECT_TRUE(report.ok())
        << "combo " << combo << ":\n"
        << report.to_string();
    digest1 = harness::chaos_digest(exp);
    expect_own_pools_balance(exp.frame_pool_stats(), who);
  }
  {
    harness::Experiment exp{cfg};
    (void)exp.run();
    digest2 = harness::chaos_digest(exp);
    expect_own_pools_balance(exp.frame_pool_stats(), who);
  }
  EXPECT_EQ(digest1, digest2) << who << ": same-seed runs diverged";
  expect_process_pool_untouched(process_pool_before, who);
}

}  // namespace netclone::testing

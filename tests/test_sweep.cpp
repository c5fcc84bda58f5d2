// The parallel sweep driver and the per-experiment frame pools it relies
// on. run_sweep runs its points on real worker threads, so the TSan lane
// checks these for races: it must equal the serial loop it replaced,
// field by field, and surface a failing point's exception on the caller.
// Two testbeds also run side by side on two threads here, each driving
// its engine directly, and must share no frame pool.
#include "harness/report.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos_util.hpp"
#include "harness/experiment.hpp"
#include "harness/multirack.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "wire/framebuf.hpp"

namespace netclone::harness {
namespace {

constexpr double kMeanServiceUs = 25.0 * 1.14;  // Exp(25) x jitter inflation

ClusterConfig small_rack() {
  ClusterConfig cfg;
  cfg.scheme = Scheme::kNetClone;
  cfg.server_workers = {4, 4, 4};
  cfg.num_clients = 2;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::microseconds(500.0);
  cfg.measure = SimTime::milliseconds(2);
  cfg.drain = SimTime::milliseconds(1);
  cfg.seed = 11;
  cfg.offered_rps =
      0.5 * cluster_capacity_rps(cfg.server_workers, kMeanServiceUs);
  return cfg;
}

MultiRackConfig small_pod() {
  MultiRackConfig cfg;
  cfg.server_racks = 2;
  cfg.servers_per_rack = 2;
  cfg.workers = 4;
  cfg.num_clients = 1;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::microseconds(500.0);
  cfg.measure = SimTime::milliseconds(2);
  cfg.drain = SimTime::milliseconds(1);
  cfg.seed = 13;
  cfg.offered_rps = 0.5 * cluster_capacity_rps({4, 4, 4, 4}, kMeanServiceUs);
  return cfg;
}

/// small_rack() under C-Clone with cancels: the clients write cancels.
ClusterConfig cancelling_rack() {
  ClusterConfig cfg = small_rack();
  cfg.scheme = Scheme::kCClone;
  cfg.client_template.cclone_cancel = true;
  return cfg;
}

/// small_pod() with three chain-replicated aggregation switches whose
/// middle one fails and rejoins: the chain controller writes a reconcile
/// marker and an admit marker.
MultiRackConfig failing_over_pod() {
  MultiRackConfig cfg = small_pod();
  cfg.num_aggs = 3;
  cfg.agg_mode = AggMode::kReplicated;
  cfg.faults.events.push_back(parse_fault_entry("at=1500us agg_fail agg1"));
  cfg.faults.events.push_back(
      parse_fault_entry("at=2500us agg_rejoin agg1"));
  return cfg;
}

/// Starts `bed` with run_timeline, then drives its engine on through the
/// public simulator(), as a test or bench that injects events does.
void drive_directly(Testbed& bed) {
  (void)bed.run_timeline(SimTime::milliseconds(1), SimTime::milliseconds(1));
  bed.simulator().run_until(SimTime::milliseconds(3));
}

void expect_same_result(const ExperimentResult& a, const ExperimentResult& b,
                        std::size_t k) {
#define NETCLONE_EXPECT_FIELD(f) \
  EXPECT_EQ(a.f, b.f) << "point " << k << ": " #f
  NETCLONE_EXPECT_FIELD(scheme);
  NETCLONE_EXPECT_FIELD(offered_rps);
  NETCLONE_EXPECT_FIELD(achieved_rps);
  NETCLONE_EXPECT_FIELD(mean_us);
  NETCLONE_EXPECT_FIELD(p50);
  NETCLONE_EXPECT_FIELD(p99);
  NETCLONE_EXPECT_FIELD(p999);
  NETCLONE_EXPECT_FIELD(server_wait_p99);
  NETCLONE_EXPECT_FIELD(server_service_p99);
  NETCLONE_EXPECT_FIELD(requests_sent);
  NETCLONE_EXPECT_FIELD(completed);
  NETCLONE_EXPECT_FIELD(redundant_responses);
  NETCLONE_EXPECT_FIELD(cloned_requests);
  NETCLONE_EXPECT_FIELD(filtered_responses);
  NETCLONE_EXPECT_FIELD(dropped_stale_clones);
  NETCLONE_EXPECT_FIELD(empty_queue_fraction);
  NETCLONE_EXPECT_FIELD(switch_stats.rx_frames);
  NETCLONE_EXPECT_FIELD(switch_stats.tx_frames);
  NETCLONE_EXPECT_FIELD(switch_stats.dropped_by_program);
  NETCLONE_EXPECT_FIELD(switch_stats.recirculated);
  NETCLONE_EXPECT_FIELD(switch_stats.multicast_copies);
  NETCLONE_EXPECT_FIELD(switch_stats.parse_errors);
  NETCLONE_EXPECT_FIELD(switch_stats.dropped_while_failed);
  NETCLONE_EXPECT_FIELD(switch_stats.egress_scheduled);
  NETCLONE_EXPECT_FIELD(switch_stats.flushed_in_pipeline);
  NETCLONE_EXPECT_FIELD(switch_stats.soft_state_wipes);
#undef NETCLONE_EXPECT_FIELD
}

TEST(Sweep, MatchesASerialLoopOverTheDefaultLoads) {
  const ClusterConfig base = small_rack();
  const double capacity =
      cluster_capacity_rps(base.server_workers, kMeanServiceUs);
  const std::vector<double> loads = default_load_points();

  const std::vector<SweepPoint> swept = run_sweep(base, capacity, loads);

  ASSERT_EQ(swept.size(), loads.size());
  for (std::size_t k = 0; k < loads.size(); ++k) {
    ClusterConfig cfg = base;
    cfg.offered_rps = capacity * loads[k];
    cfg.seed = base.seed + 1000 * (k + 1);
    const ExperimentResult serial = Experiment{cfg}.run();
    EXPECT_EQ(swept[k].load_fraction, loads[k]);
    expect_same_result(swept[k].result, serial, k);
  }
}

TEST(Sweep, MultiRackSweepMatchesASerialLoop) {
  const MultiRackConfig base = small_pod();
  const double capacity = cluster_capacity_rps({4, 4, 4, 4}, kMeanServiceUs);
  const std::vector<double> loads = {0.2, 0.6, 0.4};

  const std::vector<SweepPoint> swept = run_sweep(base, capacity, loads);

  ASSERT_EQ(swept.size(), loads.size());
  for (std::size_t k = 0; k < loads.size(); ++k) {
    MultiRackConfig cfg = base;
    cfg.offered_rps = capacity * loads[k];
    cfg.seed = base.seed + 1000 * (k + 1);
    expect_same_result(swept[k].result, MultiRackExperiment{cfg}.run(), k);
  }
}

/// Throws on the first request it is asked to make.
class ThrowingFactory final : public host::RequestFactory {
 public:
  wire::RpcRequest make(Rng& /*rng*/) override {
    throw std::runtime_error("factory failure");
  }
  double mean_intrinsic_us() const override { return 25.0; }
  std::string label() const override { return "throwing"; }
};

// A positive load fails mid-run (the factory throws inside an event); a
// zero load fails at build time (the client rejects a zero rate). Which
// exception surfaces must not depend on which worker got there first:
// always the lowest-indexed failing point's.
TEST(Sweep, RethrowsTheLowestFailingPointAfterTheJoin) {
  ClusterConfig base = small_rack();
  base.factory = std::make_shared<ThrowingFactory>();
  const double capacity =
      cluster_capacity_rps(base.server_workers, kMeanServiceUs);

  EXPECT_THROW((void)run_sweep(base, capacity, {0.5, 0.0, 0.3}),
               std::runtime_error);
  EXPECT_THROW((void)run_sweep(base, capacity, {0.0, 0.5, 0.3}),
               CheckFailure);
}

TEST(Sweep, EmptySweepReturnsNoPoints) {
  EXPECT_TRUE(run_sweep(small_rack(), 1e6, {}).empty());
}

// Experiments own their frame pools: building, running and destroying
// them never touches the process-wide pool, and each one's own books
// balance.
TEST(ExperimentPools, ExperimentsNeverTouchTheProcessPool) {
  const wire::FramePool::Stats before = wire::FramePool::instance().stats();
  {
    Experiment exp{small_rack()};
    (void)exp.run();
    testing::expect_own_pools_balance(exp.frame_pool_stats(), "rack");
  }
  {
    MultiRackExperiment exp{small_pod()};
    (void)exp.run();
    testing::expect_own_pools_balance(exp.frame_pool_stats(), "pod");
  }
  testing::expect_process_pool_untouched(before, "rack + pod");
}

// The topology hands every node its testbed's pool, so driving the engine
// directly — not through run() — allocates nothing from the process pool
// either, cancels and chain-sync markers included.
TEST(ExperimentPools, DirectlyDrivenTestbedsNeverTouchTheProcessPool) {
  const wire::FramePool::Stats before = wire::FramePool::instance().stats();
  {
    Experiment exp{cancelling_rack()};
    drive_directly(exp);
    EXPECT_GT(exp.clients()[0]->stats().cancels_sent, 0U);
    testing::expect_own_pools_balance(exp.frame_pool_stats(), "rack");
  }
  {
    MultiRackExperiment exp{failing_over_pod()};
    drive_directly(exp);
    EXPECT_GT(exp.agg_netclone_program(1).stats().chain_sync_installs, 0U)
        << "the rejoined replica installed no snapshot";
    testing::expect_own_pools_balance(exp.frame_pool_stats(), "pod");
  }
  testing::expect_process_pool_untouched(before, "directly driven rack + pod");
}

// A rack and a pod built and run at the same time on two threads share
// nothing: each pool balances and the process pool never moves. Under the
// TSan lane a shared free list is a reported race.
TEST(ExperimentPools, TestbedsOnTwoThreadsShareNoPool) {
  const wire::FramePool::Stats before = wire::FramePool::instance().stats();
  auto rack = std::async(std::launch::async, [] {
    Experiment exp{cancelling_rack()};
    drive_directly(exp);
    return exp.frame_pool_stats();
  });
  auto pod = std::async(std::launch::async, [] {
    MultiRackExperiment exp{failing_over_pod()};
    drive_directly(exp);
    return exp.frame_pool_stats();
  });
  testing::expect_own_pools_balance(rack.get(), "rack thread");
  testing::expect_own_pools_balance(pod.get(), "pod thread");
  testing::expect_process_pool_untouched(before, "rack + pod threads");
}

}  // namespace
}  // namespace netclone::harness

// Edge cases of the harness and the switch under churn: recirculation
// racing a failure, timeline binning, warmup boundaries, mixed-mode
// clients, and RackSched scheme internals at the cluster level.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

namespace netclone::harness {
namespace {

ClusterConfig base_cfg(Scheme scheme) {
  ClusterConfig cfg;
  cfg.scheme = scheme;
  cfg.server_workers = {4, 4, 4};
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::milliseconds(1);
  cfg.measure = SimTime::milliseconds(6);
  cfg.offered_rps =
      0.3 * cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);
  return cfg;
}

TEST(ExperimentEdge, FailureDuringActiveCloningDoesNotWedge) {
  // Fail the switch while clones are recirculating: in-flight loopback
  // frames die with the switch; on recovery everything must resume.
  ClusterConfig cfg = base_cfg(Scheme::kNetClone);
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(12);
  Experiment experiment{cfg};
  for (int i = 0; i < 8; ++i) {
    const auto at = SimTime::milliseconds(2 + i);
    experiment.simulator().schedule_at(at, [&experiment, i] {
      if (i % 2 == 0) {
        experiment.tor().fail();
      } else {
        experiment.tor().recover();
      }
    });
  }
  const ExperimentResult result = experiment.run();
  // Periods of service existed between the flaps.
  EXPECT_GT(result.completed, 0U);
  // And the final state is healthy: cloning kept happening.
  EXPECT_GT(result.cloned_requests, 0U);
  EXPECT_FALSE(experiment.tor().failed());
}

TEST(ExperimentEdge, TimelineBinsSumToCompletions) {
  ClusterConfig cfg = base_cfg(Scheme::kBaseline);
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(10);
  Experiment experiment{cfg};
  const auto bins = experiment.run_timeline(SimTime::milliseconds(10),
                                            SimTime::milliseconds(1),
                                            std::nullopt, std::nullopt);
  ASSERT_EQ(bins.size(), 10U);
  std::uint64_t total = 0;
  for (const auto b : bins) {
    total += b;
  }
  std::uint64_t completed = 0;
  for (const host::Client* client : experiment.clients()) {
    completed += client->stats().completed;
  }
  EXPECT_EQ(total, completed);
}

TEST(ExperimentEdge, WarmupExcludesEarlySamples) {
  ClusterConfig cfg = base_cfg(Scheme::kBaseline);
  cfg.warmup = SimTime::milliseconds(3);
  cfg.measure = SimTime::milliseconds(3);
  Experiment experiment{cfg};
  const ExperimentResult result = experiment.run();
  std::uint64_t sent = 0;
  std::uint64_t measured = 0;
  for (const host::Client* client : experiment.clients()) {
    sent += client->stats().requests_sent;
    measured += client->stats().latency.count();
  }
  // Roughly half the sending window is warmup.
  EXPECT_LT(measured, sent);
  EXPECT_NEAR(static_cast<double>(measured),
              static_cast<double>(sent) / 2.0,
              static_cast<double>(sent) * 0.15);
  EXPECT_GT(result.p99.ns(), 0);
}

TEST(ExperimentEdge, SingleClientAndManyClientsAgreeOnThroughput) {
  ClusterConfig one = base_cfg(Scheme::kNetClone);
  one.num_clients = 1;
  ClusterConfig four = base_cfg(Scheme::kNetClone);
  four.num_clients = 4;
  Experiment e1{one};
  Experiment e4{four};
  const double t1 = e1.run().achieved_rps;
  const double t4 = e4.run().achieved_rps;
  EXPECT_NEAR(t1, t4, t1 * 0.1);  // same offered load, split differently
}

TEST(ExperimentEdge, RackSchedBeatsBaselineOnHeterogeneousCluster) {
  // The scheme-level sanity that motivates Fig. 10: random placement
  // overloads the weak servers, JSQ does not.
  ClusterConfig cfg = base_cfg(Scheme::kBaseline);
  cfg.server_workers = {8, 8, 2};
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(12);
  cfg.offered_rps =
      0.75 * cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);
  Experiment baseline{cfg};
  cfg.scheme = Scheme::kRackSched;
  Experiment racksched{cfg};
  const auto rb = baseline.run();
  const auto rr = racksched.run();
  EXPECT_LT(rr.p99.us(), rb.p99.us());
}

TEST(ExperimentEdge, ServerRemovalMidRun) {
  ClusterConfig cfg = base_cfg(Scheme::kNetClone);
  cfg.server_workers = {4, 4, 4, 4};
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(10);
  cfg.offered_rps =
      0.4 * cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);
  Experiment experiment{cfg};
  experiment.simulator().schedule_at(
      SimTime::milliseconds(5),
      [&experiment] { experiment.remove_server(ServerId{1}); });
  const ExperimentResult result = experiment.run();

  // The drained server stopped receiving shortly after removal; the
  // survivors carried the load.
  const auto& servers = experiment.servers();
  EXPECT_LT(servers[1]->stats().completed,
            servers[0]->stats().completed / 2 * 3);
  EXPECT_GT(servers[0]->stats().completed, 0U);
  // Losses are limited to requests in flight with stale group ids.
  std::uint64_t completed = 0;
  for (const host::Client* client : experiment.clients()) {
    completed += client->stats().completed;
  }
  EXPECT_GE(completed + 50, result.requests_sent);
  EXPECT_GT(result.cloned_requests, 0U);
}

TEST(ExperimentEdge, RemoveServerRequiresNetCloneScheme) {
  Experiment experiment{base_cfg(Scheme::kBaseline)};
  EXPECT_THROW(experiment.remove_server(ServerId{0}), CheckFailure);
}

TEST(ExperimentEdge, LatencyDecompositionIsConsistent) {
  // Server-reported wait + service must sit inside the end-to-end
  // latency, and at mid load the mean decomposition should account for
  // most of it (the rest is the fixed network/processing path).
  ClusterConfig cfg = base_cfg(Scheme::kBaseline);
  cfg.offered_rps =
      0.6 * cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);
  Experiment experiment{cfg};
  const ExperimentResult result = experiment.run();
  EXPECT_GT(result.server_service_p99.ns(), 0);
  EXPECT_LE(result.server_service_p99, result.p99);
  EXPECT_LE(result.server_wait_p99, result.p99);
  const host::ClientStats& cs = experiment.clients()[0]->stats();
  EXPECT_EQ(cs.server_service.count(), cs.latency.count());
  const double fixed_path_us =
      cs.latency.mean_ns() / 1e3 - cs.server_queue_wait.mean_ns() / 1e3 -
      cs.server_service.mean_ns() / 1e3;
  EXPECT_GT(fixed_path_us, 2.0);   // links + switch + host threads
  EXPECT_LT(fixed_path_us, 10.0);  // ...and nothing unaccounted for
}

TEST(ExperimentEdge, CloningMasksServiceJitterDespiteExtraLoad) {
  // The decomposition explains *how* NetClone wins at mid load: executed
  // clones raise the effective server load, so the accepted responses
  // actually report MORE queueing than the baseline — yet the end-to-end
  // tail is better because taking the faster of two executions masks the
  // 15x jitter in the service component.
  ClusterConfig cfg = base_cfg(Scheme::kBaseline);
  cfg.server_workers = {8, 8, 8, 8};
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(12);
  cfg.offered_rps =
      0.5 * cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);
  Experiment baseline{cfg};
  cfg.scheme = Scheme::kNetClone;
  Experiment netclone{cfg};
  const auto rb = baseline.run();
  const auto rn = netclone.run();
  // Jitter masked: the accepted executions' service tail shrinks...
  EXPECT_LT(rn.server_service_p99.us(), 0.8 * rb.server_service_p99.us());
  // ...and dominates the wait increase from the cloning load:
  EXPECT_GE(rn.server_wait_p99.us(), rb.server_wait_p99.us());
  EXPECT_LE(rn.p99.us(), 1.05 * rb.p99.us());
}

TEST(ExperimentEdge, ZeroDrainStillProducesResults) {
  ClusterConfig cfg = base_cfg(Scheme::kBaseline);
  cfg.drain = SimTime::zero();
  Experiment experiment{cfg};
  const ExperimentResult result = experiment.run();
  EXPECT_GT(result.completed, 0U);
}

TEST(ExperimentEdge, OverloadDegradesGracefully) {
  // 120% offered: the system must saturate near capacity, not crash or
  // conserve (queues legitimately hold the excess at the end).
  ClusterConfig cfg = base_cfg(Scheme::kNetClone);
  const double capacity =
      cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);
  cfg.offered_rps = 1.2 * capacity;
  cfg.drain = SimTime::milliseconds(2);  // deliberately short
  Experiment experiment{cfg};
  const ExperimentResult result = experiment.run();
  EXPECT_GT(result.achieved_rps, 0.8 * capacity);
  EXPECT_LT(result.achieved_rps, 1.05 * capacity);
  EXPECT_GT(result.p99.us(), 200.0);  // deep queues
}

}  // namespace
}  // namespace netclone::harness

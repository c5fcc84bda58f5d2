// C-Clone cancellation (§2.2's optional cancel) and the closed-loop client
// pacing mode.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "harness/experiment.hpp"
#include "host/client.hpp"
#include "host/server.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "phys/topology.hpp"
#include "test_util.hpp"

namespace netclone::host {
namespace {

using netclone::testing::CaptureNode;
using netclone::testing::make_request;

TEST(Cancel, RemovesQueuedRequestOnly) {
  sim::Simulator sim;
  phys::Topology topo{sim};
  ServerParams sp;
  sp.sid = ServerId{0};
  sp.workers = 1;
  auto& server = topo.add_node<Server>(
      sim, sp, std::make_shared<SyntheticService>(JitterModel{0.0, 1.0}),
      Rng{1});
  auto& wire_end = topo.add_node<CaptureNode>("wire");
  topo.connect(server, wire_end);

  // Request 1 occupies the worker, request 2 queues.
  wire_end.transmit(0, make_request(0, 1, 0, 0, 50000).serialize());
  wire_end.transmit(0, make_request(0, 2, 0, 0, 50000).serialize());

  // Cancel request 2 (queued) and request 1 (in service — must miss).
  wire::NetCloneHeader cancel2;
  cancel2.type = wire::MsgType::kCancel;
  cancel2.client_id = 0;
  cancel2.client_seq = 2;
  wire_end.transmit(0, wire::make_netclone_packet(
                           wire::MacAddress::from_node(1),
                           wire::MacAddress::broadcast(), client_ip(0),
                           server_ip(ServerId{0}), 40000, cancel2, {})
                           .serialize());
  wire::NetCloneHeader cancel1 = cancel2;
  cancel1.client_seq = 1;
  wire_end.transmit(0, wire::make_netclone_packet(
                           wire::MacAddress::from_node(1),
                           wire::MacAddress::broadcast(), client_ip(0),
                           server_ip(ServerId{0}), 40000, cancel1, {})
                           .serialize());
  sim.run();

  // Only request 1 produced a response; request 2 was cancelled in queue.
  EXPECT_EQ(wire_end.packets().size(), 1U);
  EXPECT_EQ(wire_end.packets()[0].nc().client_seq, 1U);
  EXPECT_EQ(server.stats().cancelled_requests, 1U);
  EXPECT_EQ(server.stats().cancel_misses, 1U);
}

TEST(Cancel, EndToEndCCloneCancelReducesRedundantWork) {
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kCClone;
  cfg.server_workers = {4, 4, 4, 4};
  cfg.factory = std::make_shared<ExponentialWorkload>(25.0);
  cfg.service = std::make_shared<SyntheticService>(JitterModel{0.01, 15});
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(10);
  cfg.client_template.cclone_cancel = true;
  // Push into C-Clone's queueing regime so duplicates actually wait in
  // queues where cancels can catch them.
  cfg.offered_rps =
      0.45 * harness::cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);

  harness::Experiment experiment{cfg};
  (void)experiment.run();
  std::uint64_t cancels = 0;
  for (const Client* client : experiment.clients()) {
    cancels += client->stats().cancels_sent;
  }
  std::uint64_t cancelled = 0;
  for (const Server* server : experiment.servers()) {
    cancelled += server->stats().cancelled_requests;
  }
  EXPECT_GT(cancels, 100U);      // one cancel per completed request
  EXPECT_GT(cancelled, 0U);      // some duplicates were still queued
  EXPECT_LT(cancelled, cancels); // most were already running or done
}

TEST(Cancel, QueueWaitHistogramPopulates) {
  sim::Simulator sim;
  phys::Topology topo{sim};
  ServerParams sp;
  sp.sid = ServerId{0};
  sp.workers = 1;
  auto& server = topo.add_node<Server>(
      sim, sp, std::make_shared<SyntheticService>(JitterModel{0.0, 1.0}),
      Rng{1});
  auto& wire_end = topo.add_node<CaptureNode>("wire");
  topo.connect(server, wire_end);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    wire_end.transmit(0, make_request(0, i, 0, 0, 10000).serialize());
  }
  sim.run();
  const LatencyHistogram& wait = server.stats().queue_wait;
  EXPECT_EQ(wait.count(), 3U);
  // First request started immediately; the third waited ~2 executions.
  EXPECT_LT(wait.min().us(), 1.0);
  EXPECT_GT(wait.max().us(), 15.0);
}

TEST(ClosedLoop, MaintainsWindow) {
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.server_workers = {4, 4};
  cfg.factory = std::make_shared<FixedWorkload>(25.0);
  cfg.service = std::make_shared<SyntheticService>(JitterModel{0.0, 1.0});
  cfg.num_clients = 1;
  cfg.warmup = SimTime::milliseconds(1);
  cfg.measure = SimTime::milliseconds(10);
  cfg.client_template.loop = LoopMode::kClosedLoop;
  cfg.client_template.closed_loop_window = 4;
  cfg.offered_rps = 1.0;  // ignored in closed loop

  harness::Experiment experiment{cfg};
  const auto result = experiment.run();
  const Client* client = experiment.clients()[0];
  // Little's law: throughput ~ window / latency. Latency ~ 25 us service
  // + ~5 us path => ~4/30us ~ 133 KRPS over the full 11 ms sending window.
  const double expected_rps = 4.0 / 30e-6;
  const double achieved =
      static_cast<double>(client->stats().completed) / 11e-3;
  EXPECT_NEAR(achieved, expected_rps, expected_rps * 0.15);
  EXPECT_GT(result.requests_sent, 1000U);
}

TEST(ClosedLoop, StopsAtStopTime) {
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kBaseline;
  cfg.server_workers = {4, 4};
  cfg.factory = std::make_shared<FixedWorkload>(25.0);
  cfg.service = std::make_shared<SyntheticService>(JitterModel{0.0, 1.0});
  cfg.num_clients = 1;
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(5);
  cfg.client_template.loop = LoopMode::kClosedLoop;
  cfg.client_template.closed_loop_window = 2;
  cfg.offered_rps = 1.0;

  harness::Experiment experiment{cfg};
  (void)experiment.run();
  const Client* client = experiment.clients()[0];
  // After stop_at no new requests are issued; everything in flight drains.
  EXPECT_EQ(client->stats().completed, client->stats().requests_sent);
}

TEST(ClosedLoop, WindowPastTheFirstTableSlotsRecordsExactSamples) {
  // A window of 23 fills the client's request table (FlatMap64: 8 slots
  // at first, 32 after priming) to one below its growth threshold, so the
  // first completion's re-issue grows the table and moves every entry.
  // The completion must have read the entry before that; a stale read
  // would record garbage (and is a use-after-free under ASan).
  harness::ClusterConfig cfg;
  cfg.scheme = harness::Scheme::kBaseline;
  cfg.server_workers = {16, 16};
  cfg.factory = std::make_shared<FixedWorkload>(25.0);
  cfg.service = std::make_shared<SyntheticService>(JitterModel{0.0, 1.0});
  cfg.num_clients = 1;
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::milliseconds(2);
  cfg.client_template.loop = LoopMode::kClosedLoop;
  cfg.client_template.closed_loop_window = 23;
  cfg.offered_rps = 1.0;  // ignored in closed loop

  harness::Experiment experiment{cfg};
  (void)experiment.run();
  const Client* client = experiment.clients()[0];
  const ClientStats& stats = client->stats();
  EXPECT_GT(stats.completed, 1000U);
  EXPECT_EQ(stats.completed, stats.requests_sent);
  EXPECT_EQ(client->outstanding(), 0U);
  EXPECT_EQ(stats.latency.count(), stats.completed);
  // No jitter: every request executes for exactly 25 us.
  EXPECT_EQ(stats.server_service.min(), SimTime::microseconds(25.0));
  EXPECT_EQ(stats.server_service.max(), SimTime::microseconds(25.0));
  // End to end: service plus path, plus at most one service time of
  // queueing when the random choice puts more than 16 on one server.
  EXPECT_GT(stats.latency.min(), SimTime::microseconds(25.0));
  EXPECT_LT(stats.latency.max(), SimTime::microseconds(60.0));
  EXPECT_LT(stats.server_queue_wait.max(), SimTime::microseconds(25.0));
}

}  // namespace
}  // namespace netclone::host

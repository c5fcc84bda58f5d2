// C-Clone cancellation (§2.2's optional cancel).
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
  std::uint64_t completed = 0;
  for (const Client* client : experiment.clients()) {
    cancels += client->stats().cancels_sent;
    completed += client->stats().completed;
  }
  std::uint64_t cancelled = 0;
  for (const Server* server : experiment.servers()) {
    cancelled += server->stats().cancelled_requests;
  }
  EXPECT_EQ(cancels, completed);  // one cancel per completed request
  EXPECT_GT(cancels, 100U);
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

}  // namespace
}  // namespace netclone::host

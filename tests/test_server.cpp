#include "sim/simulator.hpp"
#include "host/server.hpp"

#include <gtest/gtest.h>

#include "phys/topology.hpp"
#include "test_util.hpp"

namespace netclone::host {
namespace {

using namespace netclone::literals;
using netclone::testing::CaptureNode;
using netclone::testing::make_request;

struct Rig {
  sim::Simulator sim;
  phys::Topology topo{sim};
  Server* server = nullptr;
  CaptureNode* wire_end = nullptr;

  explicit Rig(ServerParams params,
               JitterModel jitter = JitterModel{0.0, 15.0}) {
    server = &topo.add_node<Server>(
        sim, params, std::make_shared<SyntheticService>(jitter), Rng{42});
    wire_end = &topo.add_node<CaptureNode>("wire");
    topo.connect(*server, *wire_end);
  }

  void inject(wire::Packet pkt) {
    wire_end->transmit(0, pkt.serialize());
  }

  [[nodiscard]] std::vector<wire::Packet> responses() const {
    return wire_end->packets();
  }
};

ServerParams params_with(std::uint32_t workers) {
  ServerParams p;
  p.sid = ServerId{3};
  p.workers = workers;
  return p;
}

TEST(Server, RespondsToRequest) {
  Rig rig{params_with(4)};
  rig.inject(make_request(0, 1, 0, 0, /*intrinsic_ns=*/10000));
  rig.sim.run();
  const auto resp = rig.responses();
  ASSERT_EQ(resp.size(), 1U);
  EXPECT_TRUE(resp[0].nc().is_response());
  EXPECT_EQ(resp[0].nc().sid, 3);
  EXPECT_EQ(resp[0].nc().client_seq, 1U);
  EXPECT_EQ(resp[0].ip.src, server_ip(ServerId{3}));
  EXPECT_EQ(resp[0].ip.dst, client_ip(0));
  EXPECT_EQ(resp[0].udp.dst_port, 40000);
  EXPECT_EQ(rig.server->stats().completed, 1U);
}

TEST(Server, ExecutionTakesIntrinsicPlusOverheads) {
  ServerParams p = params_with(1);
  Rig rig{p};
  rig.inject(make_request(0, 1, 0, 0, 10000));
  rig.sim.run();
  // dispatch(300) + exec(10000) + tx(150) + 2 links with delay 850 + ser.
  const double total_us = rig.sim.now().us();
  EXPECT_GT(total_us, 12.0);
  EXPECT_LT(total_us, 13.0);
}

TEST(Server, ParallelWorkersOverlapExecution) {
  Rig rig{params_with(4)};
  for (std::uint32_t i = 1; i <= 4; ++i) {
    rig.inject(make_request(0, i, 0, 0, 100000));  // 100 us each
  }
  rig.sim.run();
  EXPECT_EQ(rig.responses().size(), 4U);
  // Four overlapping 100 us executions finish well before 400 us of
  // sequential time.
  EXPECT_LT(rig.sim.now().us(), 200.0);
}

TEST(Server, SingleWorkerSerializesFCFS) {
  Rig rig{params_with(1)};
  for (std::uint32_t i = 1; i <= 3; ++i) {
    rig.inject(make_request(0, i, 0, 0, 50000));
  }
  rig.sim.run();
  const auto resp = rig.responses();
  ASSERT_EQ(resp.size(), 3U);
  // FCFS: responses in arrival order.
  EXPECT_EQ(resp[0].nc().client_seq, 1U);
  EXPECT_EQ(resp[1].nc().client_seq, 2U);
  EXPECT_EQ(resp[2].nc().client_seq, 3U);
  EXPECT_GT(rig.sim.now().us(), 150.0);  // serialized executions
}

TEST(Server, PiggybacksQueueLengthInState) {
  Rig rig{params_with(1)};
  // Three requests at once: when the first completes, two are waiting.
  for (std::uint32_t i = 1; i <= 3; ++i) {
    rig.inject(make_request(0, i, 0, 0, 50000));
  }
  rig.sim.run();
  const auto resp = rig.responses();
  ASSERT_EQ(resp.size(), 3U);
  EXPECT_EQ(resp[0].nc().state, 2);  // two still queued
  EXPECT_EQ(resp[1].nc().state, 1);
  EXPECT_EQ(resp[2].nc().state, 0);
  EXPECT_EQ(rig.server->stats().responses_with_empty_queue, 1U);
  EXPECT_EQ(rig.server->stats().responses_total, 3U);
}

TEST(Server, DropsCloneWhenQueueNonEmpty) {
  Rig rig{params_with(1)};
  // Fill the worker and the queue with originals.
  rig.inject(make_request(0, 1, 0, 0, 50000));
  rig.inject(make_request(0, 2, 0, 0, 50000));
  // A cloned copy arrives while one request waits: must be dropped.
  wire::Packet clone = make_request(0, 3, 0, 0, 50000);
  clone.nc().clo = wire::CloneStatus::kClonedCopy;
  rig.inject(clone);
  rig.sim.run();
  EXPECT_EQ(rig.responses().size(), 2U);
  EXPECT_EQ(rig.server->stats().dropped_stale_clones, 1U);
}

TEST(Server, AcceptsCloneWhenQueueEmptyEvenIfWorkerBusy) {
  // Paper-literal admission (kQueueEmpty): a clone arriving while the
  // worker is busy but nothing queues is processed.
  Rig rig{params_with(1)};
  rig.inject(make_request(0, 1, 0, 0, 50000));
  wire::Packet clone = make_request(0, 2, 0, 0, 50000);
  clone.nc().clo = wire::CloneStatus::kClonedCopy;
  rig.inject(clone);
  rig.sim.run();
  EXPECT_EQ(rig.responses().size(), 2U);
  EXPECT_EQ(rig.server->stats().dropped_stale_clones, 0U);
}

TEST(Server, WorkerFreeAdmissionDropsQueuedClones) {
  ServerParams p = params_with(1);
  p.clone_admission = CloneAdmission::kWorkerFree;
  Rig rig{p};
  rig.inject(make_request(0, 1, 0, 0, 50000));
  wire::Packet clone = make_request(0, 2, 0, 0, 50000);
  clone.nc().clo = wire::CloneStatus::kClonedCopy;
  rig.inject(clone);
  rig.sim.run();
  EXPECT_EQ(rig.responses().size(), 1U);
  EXPECT_EQ(rig.server->stats().dropped_stale_clones, 1U);
}

TEST(Server, NeverDropsClonedOriginal) {
  Rig rig{params_with(1)};
  rig.inject(make_request(0, 1, 0, 0, 50000));
  rig.inject(make_request(0, 2, 0, 0, 50000));
  wire::Packet original = make_request(0, 3, 0, 0, 50000);
  original.nc().clo = wire::CloneStatus::kClonedOriginal;
  rig.inject(original);
  rig.sim.run();
  EXPECT_EQ(rig.responses().size(), 3U);
  EXPECT_EQ(rig.server->stats().dropped_stale_clones, 0U);
}

TEST(Server, ClonedResponsesEchoCloAndIdx) {
  Rig rig{params_with(1)};
  wire::Packet req = make_request(0, 1, 5, /*idx=*/1, 10000);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  req.nc().req_id = 1234;
  rig.inject(req);
  rig.sim.run();
  const auto resp = rig.responses();
  ASSERT_EQ(resp.size(), 1U);
  EXPECT_EQ(resp[0].nc().clo, wire::CloneStatus::kClonedOriginal);
  EXPECT_EQ(resp[0].nc().idx, 1);
  EXPECT_EQ(resp[0].nc().req_id, 1234U);
}

TEST(Server, IgnoresResponsesAndGarbage) {
  Rig rig{params_with(1)};
  wire::Packet req = make_request(0, 1, 0, 0, 1000);
  wire::Packet resp = netclone::testing::make_response(ServerId{1}, 0, req);
  rig.inject(resp);
  rig.wire_end->transmit(0, wire::Frame(7, std::byte{1}));
  rig.sim.run();
  EXPECT_TRUE(rig.responses().empty());
  EXPECT_EQ(rig.server->stats().rx_requests, 0U);
}

TEST(Server, DispatcherSerializesArrivals) {
  ServerParams p = params_with(8);
  p.dispatch_cost = 1_us;
  Rig rig{p};
  for (std::uint32_t i = 1; i <= 4; ++i) {
    rig.inject(make_request(0, i, 0, 0, 0));
  }
  rig.sim.run();
  // 4 packets through a 1 us dispatcher: >= 4 us before the last response.
  EXPECT_GT(rig.sim.now().us(), 4.0);
  EXPECT_EQ(rig.responses().size(), 4U);
}

TEST(Server, TracksMaxQueueDepth) {
  Rig rig{params_with(1)};
  for (std::uint32_t i = 1; i <= 5; ++i) {
    rig.inject(make_request(0, i, 0, 0, 10000));
  }
  rig.sim.run();
  EXPECT_EQ(rig.server->stats().max_queue_depth, 4U);
}

TEST(Server, RejectsZeroWorkers) {
  sim::Simulator sim;
  ServerParams p;
  p.workers = 0;
  EXPECT_THROW((void)Server(sim, p, std::make_shared<SyntheticService>(
                                  JitterModel{}),
                      Rng{1}),
               CheckFailure);
}

TEST(Server, RejectsMoreThan64ResponseFragments) {
  // The client tracks a response's fragments in a 64-bit mask.
  sim::Simulator sim;
  ServerParams p;
  p.response_fragments = 65;
  EXPECT_THROW((void)Server(sim, p, std::make_shared<SyntheticService>(
                                  JitterModel{}),
                      Rng{1}),
               CheckFailure);
}

// -- receive-path faults -----------------------------------------------------
//
// The server's ingress link delivers each frame when the dispatcher has
// picked it up: wire arrival plus dispatch_cost, behind the frames before
// it. A crash or pause acts on the frame at that instant.

TEST(ServerFaults, AFramePickedUpWhileCrashedIsDropped) {
  ServerParams p = params_with(4);
  p.dispatch_cost = 1_us;
  Rig rig{p};
  // Both arrive by 0.87 us; the dispatcher picks them up at about 1.86 and
  // 2.86 us.
  rig.inject(make_request(0, 1, 0, 0, 1000));
  rig.inject(make_request(0, 2, 0, 0, 1000));
  rig.sim.schedule_at(1_us, [&] { rig.server->crash(); });
  rig.sim.schedule_at(2_us, [&] { rig.server->restart(); });
  rig.sim.run();
  const ServerStats& s = rig.server->stats();
  EXPECT_EQ(s.dropped_while_crashed, 1U);
  EXPECT_EQ(s.rx_requests, 1U);
  EXPECT_EQ(s.abandoned_in_flight, 0U);
  const auto resp = rig.responses();
  ASSERT_EQ(resp.size(), 1U);
  EXPECT_EQ(resp[0].nc().client_seq, 2U);
}

TEST(ServerFaults, PausedBacklogIsDispatchedInArrivalOrderWithoutPacing) {
  ServerParams p = params_with(1);
  p.dispatch_cost = 1_us;
  Rig rig{p};
  rig.server->pause();
  for (std::uint32_t i = 1; i <= 3; ++i) {
    rig.inject(make_request(0, i, 0, 0, 10000));
  }
  rig.sim.schedule_at(10_us, [&] {
    EXPECT_EQ(rig.server->stats().paused_frames, 3U);
    EXPECT_EQ(rig.server->stats().rx_requests, 0U);
    rig.server->resume();
    // Each paid the dispatcher at pickup, so all three are dispatched
    // at once: one runs, two wait.
    EXPECT_EQ(rig.server->stats().rx_requests, 3U);
    EXPECT_EQ(rig.server->queue_depth(), 2U);
  });
  rig.sim.run();
  const auto resp = rig.responses();
  ASSERT_EQ(resp.size(), 3U);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resp[i].nc().client_seq, i + 1);
    EXPECT_EQ(resp[i].nc().state, 2 - i);
  }
  // The last one waited for two executions (10 us + 150 ns response
  // cost each) and not for the dispatcher.
  EXPECT_EQ(rig.server->stats().queue_wait.max(),
            SimTime::nanoseconds(2 * 10150));
}

TEST(ServerFaults, ACorruptedFramePaysTheDispatcher) {
  // A frame that fails its checksum is discarded only once the dispatcher
  // has picked it up, so the request behind it is served one
  // dispatch_cost later.
  const auto finished_at = [](bool corrupted_first) {
    ServerParams p = params_with(1);
    p.dispatch_cost = 1_us;
    Rig rig{p};
    if (corrupted_first) {
      wire::Frame bad = make_request(0, 1, 0, 0, 1000).serialize();
      bad.back() ^= std::byte{0x01};
      rig.wire_end->transmit(0, bad);
    }
    rig.inject(make_request(0, 2, 0, 0, 1000));
    rig.sim.run();
    EXPECT_EQ(rig.responses().size(), 1U);
    EXPECT_EQ(rig.server->stats().checksum_drops, corrupted_first ? 1U : 0U);
    return rig.sim.now();
  };
  EXPECT_EQ(finished_at(true), finished_at(false) + 1_us);
}

}  // namespace
}  // namespace netclone::host

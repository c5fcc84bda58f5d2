#include "sim/simulator.hpp"
#include "baselines/laedge.hpp"

#include <gtest/gtest.h>

#include "phys/topology.hpp"
#include "test_util.hpp"

namespace netclone::baselines {
namespace {

using netclone::testing::CaptureNode;
using netclone::testing::make_request;
using netclone::testing::make_response;

std::vector<LaedgeWorkerInfo> two_workers(std::uint32_t capacity) {
  return {
      LaedgeWorkerInfo{ServerId{0}, host::server_ip(ServerId{0}), capacity},
      LaedgeWorkerInfo{ServerId{1}, host::server_ip(ServerId{1}), capacity},
  };
}

/// Requests injected back to back: past the coordinator's 512-packet rx
/// ring, and inside the wire's 1,024-frame egress queue.
constexpr std::uint32_t kFlood = 600;

struct Rig {
  sim::Simulator sim;
  phys::Topology topo{sim};
  LaedgeCoordinator* coord = nullptr;
  CaptureNode* wire_end = nullptr;

  explicit Rig(std::vector<LaedgeWorkerInfo> workers) {
    coord =
        &topo.add_node<LaedgeCoordinator>(sim, std::move(workers), Rng{5});
    wire_end = &topo.add_node<CaptureNode>("wire");
    topo.connect(*coord, *wire_end);
  }

  void inject(const wire::Packet& pkt) {
    wire_end->transmit(0, pkt.serialize());
  }
};

TEST(Laedge, ClonesWhenTwoWorkersIdle) {
  Rig rig{two_workers(1)};
  rig.inject(make_request(0, 1, 0, 0));
  rig.sim.run();
  const auto out = rig.wire_end->packets();
  ASSERT_EQ(out.size(), 2U);  // one copy per idle worker
  EXPECT_NE(out[0].ip.dst, out[1].ip.dst);
  for (const auto& pkt : out) {
    EXPECT_EQ(pkt.ip.src, host::coordinator_ip());
    EXPECT_TRUE(pkt.nc().is_request());
    EXPECT_EQ(pkt.nc().client_seq, 1U);
  }
  EXPECT_EQ(rig.coord->stats().cloned, 1U);
}

TEST(Laedge, ForwardsSingleWhenOneIdle) {
  Rig rig{two_workers(1)};
  rig.inject(make_request(0, 1, 0, 0));  // clones to both -> none idle
  rig.inject(make_request(0, 2, 0, 0));  // queued
  rig.sim.run();
  EXPECT_EQ(rig.coord->stats().cloned, 1U);
  EXPECT_EQ(rig.coord->stats().queued, 1U);
  EXPECT_EQ(rig.coord->pending_requests(), 1U);

  // One worker answers: request 2 dispatches to exactly that free worker.
  const auto out1 = rig.wire_end->packets();
  wire::Packet resp = make_response(ServerId{0}, 0, out1[0]);
  rig.inject(resp);
  rig.sim.run();
  EXPECT_EQ(rig.coord->pending_requests(), 0U);
  EXPECT_EQ(rig.coord->stats().forwarded_single, 1U);
  const auto out2 = rig.wire_end->packets();
  // New frames: the relayed response + the dispatched request 2.
  ASSERT_EQ(out2.size(), 4U);
}

TEST(Laedge, RelaysFirstResponseAbsorbsDuplicate) {
  Rig rig{two_workers(1)};
  rig.inject(make_request(3, 9, 0, 0));
  rig.sim.run();
  const auto copies = rig.wire_end->packets();
  ASSERT_EQ(copies.size(), 2U);

  rig.inject(make_response(ServerId{0}, 0, copies[0]));
  rig.inject(make_response(ServerId{1}, 0, copies[1]));
  rig.sim.run();

  EXPECT_EQ(rig.coord->stats().relayed_responses, 1U);
  EXPECT_EQ(rig.coord->stats().absorbed_duplicates, 1U);
  const auto all = rig.wire_end->packets();
  // 2 dispatched copies + exactly 1 relayed response.
  ASSERT_EQ(all.size(), 3U);
  const wire::Packet& relayed = all[2];
  EXPECT_TRUE(relayed.nc().is_response());
  EXPECT_EQ(relayed.ip.dst, host::client_ip(3));
  EXPECT_EQ(relayed.nc().client_seq, 9U);
}

TEST(Laedge, QueuesWhenAllBusyAndDrainsInOrder) {
  Rig rig{two_workers(1)};
  rig.inject(make_request(0, 1, 0, 0));  // occupies both workers
  rig.inject(make_request(0, 2, 0, 0));  // queued
  rig.inject(make_request(0, 3, 0, 0));  // queued
  rig.sim.run();
  EXPECT_EQ(rig.coord->pending_requests(), 2U);
  EXPECT_EQ(rig.coord->stats().max_queue_depth, 2U);

  // Free both workers: queued requests dispatch FCFS (2 before 3).
  auto copies = rig.wire_end->packets();
  rig.inject(make_response(ServerId{0}, 0, copies[0]));
  rig.inject(make_response(ServerId{1}, 0, copies[1]));
  rig.sim.run();
  EXPECT_EQ(rig.coord->pending_requests(), 0U);
  const auto all = rig.wire_end->packets();
  std::vector<std::uint32_t> dispatched_seqs;
  for (const auto& pkt : all) {
    if (pkt.nc().is_request() && pkt.nc().client_seq > 1) {
      dispatched_seqs.push_back(pkt.nc().client_seq);
    }
  }
  ASSERT_EQ(dispatched_seqs.size(), 2U);
  EXPECT_EQ(dispatched_seqs[0], 2U);
  EXPECT_EQ(dispatched_seqs[1], 3U);
}

TEST(Laedge, MultiSlotWorkersCountAsIdle) {
  Rig rig{two_workers(2)};
  rig.inject(make_request(0, 1, 0, 0));
  rig.inject(make_request(0, 2, 0, 0));
  rig.sim.run();
  // Both requests cloned: capacity 2 means workers stay idle after one
  // outstanding copy each.
  EXPECT_EQ(rig.coord->stats().cloned, 2U);
  EXPECT_EQ(rig.wire_end->packets().size(), 4U);
}

TEST(Laedge, CpuSerializesPacketHandling) {
  Rig rig{two_workers(4)};
  const SimTime start = rig.sim.now();
  for (std::uint32_t i = 1; i <= 4; ++i) {
    rig.inject(make_request(0, i, 0, 0));
  }
  rig.sim.run();
  // 4 rx + 8 tx = 12 packet-times of 1.2 us on one core, plus wire time.
  EXPECT_GT((rig.sim.now() - start).us(), 12 * 1.2);
}

TEST(Laedge, RequestsShedWhenRingFull) {
  Rig rig{two_workers(1)};
  for (std::uint32_t i = 1; i <= kFlood; ++i) {
    rig.inject(make_request(0, i, 0, 0));
  }
  rig.sim.run();
  EXPECT_GT(rig.coord->stats().rx_ring_drops, 0U);
  EXPECT_LT(rig.coord->stats().requests, kFlood);
}

TEST(Laedge, ResponsesBypassTheRing) {
  Rig rig{two_workers(1)};
  rig.inject(make_request(0, 1, 0, 0));
  rig.sim.run();
  auto copies = rig.wire_end->packets();
  ASSERT_EQ(copies.size(), 2U);
  // Flood requests, then deliver a response: it must still be processed.
  for (std::uint32_t i = 2; i <= kFlood; ++i) {
    rig.inject(make_request(0, i, 0, 0));
  }
  rig.inject(make_response(ServerId{0}, 0, copies[0]));
  rig.sim.run();
  EXPECT_GT(rig.coord->stats().rx_ring_drops, 0U);  // the ring was full
  EXPECT_EQ(rig.coord->stats().relayed_responses, 1U);
}

TEST(Laedge, RequiresWorkers) {
  sim::Simulator sim;
  EXPECT_THROW((void)LaedgeCoordinator(sim, {}, Rng{1}), CheckFailure);
}

}  // namespace
}  // namespace netclone::baselines

// Server-side multi-packet handling (§3.7): fragment reassembly pins the
// request to fragment 0 regardless of arrival order, duplicates are
// counted instead of double-consumed, cancels purge partial reassemblies,
// per-fragment clone drops strand partials, and fragmented responses
// reassemble cleanly at a real client.
#include <gtest/gtest.h>

#include "host/client.hpp"
#include "host/server.hpp"
#include "host/workload.hpp"
#include "phys/topology.hpp"
#include "sim/simulator.hpp"
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

  explicit Rig(ServerParams params) {
    server = &topo.add_node<Server>(
        sim, params,
        std::make_shared<SyntheticService>(JitterModel{0.0, 15.0}), Rng{42});
    wire_end = &topo.add_node<CaptureNode>("wire");
    topo.connect(*server, *wire_end);
  }

  void inject(wire::Packet pkt) { wire_end->transmit(0, pkt.serialize()); }

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

/// One fragment of a multi-packet request. Only fragment 0 carries the
/// RPC payload; follow-ups are header-only markers.
wire::Packet fragment(std::uint32_t seq, std::uint8_t idx,
                      std::uint8_t count) {
  wire::Packet pkt = make_request(0, seq, 0, 0, /*intrinsic_ns=*/10000);
  pkt.nc().frag_idx = idx;
  pkt.nc().frag_count = count;
  if (idx != 0) {
    pkt.payload.clear();
  }
  return pkt;
}

wire::Packet cancel_for(std::uint32_t seq) {
  wire::Packet pkt = make_request(0, seq, 0, 0);
  pkt.nc().type = wire::MsgType::kCancel;
  pkt.payload.clear();
  return pkt;
}

// Regression: the surfaced request used to be whichever fragment arrived
// first. A header-only follow-up arriving before fragment 0 then executed
// with an empty payload (no response at all), and the response echoed the
// follow-up's CLO instead of the root's cloning decision.
TEST(ServerFragments, SurfacesFragmentZeroRegardlessOfArrivalOrder) {
  Rig rig{params_with(4)};
  wire::Packet f1 = fragment(7, 1, 2);
  f1.nc().clo = wire::CloneStatus::kNotCloned;
  wire::Packet f0 = fragment(7, 0, 2);
  f0.nc().clo = wire::CloneStatus::kClonedOriginal;
  rig.inject(f1);  // follow-up first: reordered by cloning/multipath
  rig.inject(f0);
  rig.sim.run();

  const auto resp = rig.responses();
  ASSERT_EQ(resp.size(), 1U);
  // The response derives from fragment 0: payload executed, CLO echoed.
  EXPECT_EQ(resp[0].nc().clo, wire::CloneStatus::kClonedOriginal);
  EXPECT_EQ(resp[0].nc().client_seq, 7U);
  EXPECT_EQ(rig.server->stats().reassembled_requests, 1U);
  EXPECT_EQ(rig.server->stats().completed, 1U);
}

TEST(ServerFragments, InOrderArrivalStillCompletes) {
  Rig rig{params_with(4)};
  rig.inject(fragment(9, 0, 3));
  rig.inject(fragment(9, 1, 3));
  rig.inject(fragment(9, 2, 3));
  rig.sim.run();
  ASSERT_EQ(rig.responses().size(), 1U);
  EXPECT_EQ(rig.server->stats().reassembled_requests, 1U);
  EXPECT_EQ(rig.server->stats().duplicate_fragments, 0U);
}

// Regression: a duplicate ordinal (a clone that slipped past filtering,
// or a retransmit overlap) must be counted and ignored — never treated
// as a distinct fragment toward completion.
TEST(ServerFragments, DuplicateFragmentCountedAndIgnored) {
  Rig rig{params_with(4)};
  rig.inject(fragment(11, 0, 2));
  rig.inject(fragment(11, 0, 2));  // duplicate of the same ordinal
  rig.sim.run();
  EXPECT_TRUE(rig.responses().empty());  // still waiting for fragment 1
  EXPECT_EQ(rig.server->stats().duplicate_fragments, 1U);

  rig.inject(fragment(11, 1, 2));
  rig.sim.run();
  EXPECT_EQ(rig.responses().size(), 1U);  // completes exactly once
  EXPECT_EQ(rig.server->stats().reassembled_requests, 1U);
}

// Regression: a cancel that raced a partially reassembled request used to
// match nothing (the fragments were not in the queue yet), stranding the
// partial until the TTL sweep.
TEST(ServerFragments, CancelPurgesPartialReassembly) {
  Rig rig{params_with(4)};
  rig.inject(fragment(13, 0, 2));
  rig.inject(cancel_for(13));
  rig.inject(fragment(13, 1, 2));  // the late fragment must not complete
  rig.sim.run();
  EXPECT_TRUE(rig.responses().empty());
  EXPECT_EQ(rig.server->stats().cancelled_partials, 1U);
  EXPECT_EQ(rig.server->stats().cancel_misses, 0U);
  EXPECT_EQ(rig.server->stats().reassembled_requests, 0U);
}

TEST(ServerFragments, CancelStillPrefersQueuedRequest) {
  Rig rig{params_with(1)};
  rig.inject(make_request(0, 1, 0, 0, 50000));  // occupies the worker
  rig.inject(make_request(0, 2, 0, 0, 50000));  // waits in the queue
  rig.inject(cancel_for(2));
  rig.sim.run();
  EXPECT_EQ(rig.responses().size(), 1U);
  EXPECT_EQ(rig.server->stats().cancelled_requests, 1U);
  EXPECT_EQ(rig.server->stats().cancelled_partials, 0U);
}

// §3.4 applied per fragment: a cloned copy's follow-up fragment arriving
// while the queue is non-empty is dropped, stranding the partial — which
// the TTL sweep then reclaims.
TEST(ServerFragments, CloneDropStrandsPartialUntilTtlSweep) {
  Rig rig{params_with(1)};

  wire::Packet c0 = fragment(21, 0, 2);
  c0.nc().clo = wire::CloneStatus::kClonedCopy;
  rig.inject(c0);  // queue empty: the copy's fragment 0 is admitted

  rig.inject(make_request(0, 22, 0, 0, 200000));  // worker busy...
  rig.inject(make_request(0, 23, 0, 0, 200000));  // ...and queue non-empty

  wire::Packet c1 = fragment(21, 1, 2);
  c1.nc().clo = wire::CloneStatus::kClonedCopy;
  rig.inject(c1);  // dropped: the tracked idle state was stale
  rig.sim.run();

  EXPECT_EQ(rig.server->stats().dropped_stale_clones, 1U);
  EXPECT_EQ(rig.server->stats().reassembled_requests, 0U);
  EXPECT_EQ(rig.responses().size(), 2U);  // only the two originals

  // The stranded partial is reclaimed once the periodic sweep runs (every
  // 4096 dispatches) after the server's 50 ms TTL elapsed. Let the TTL
  // pass, then feed the dispatcher in waves small enough to stay inside
  // the link's drop-tail queue.
  rig.sim.run_until(rig.sim.now() + 50_ms);
  for (std::uint32_t wave = 0; wave < 9; ++wave) {
    for (std::uint32_t i = 0; i < 500; ++i) {
      rig.inject(make_request(0, 1000 + wave * 500 + i, 0, 0, 0));
    }
    rig.sim.run();
  }
  EXPECT_EQ(rig.server->stats().expired_partials, 1U);
}

// End to end: a server configured for 3-fragment responses answers a real
// client, which must reassemble every response from its fragments: the
// body-bearing fragment 0 and two header-only markers, each built as its
// own frame, through links and parsing.
TEST(ServerFragments, FragmentedResponsesReassembleAtClient) {
  sim::Simulator sim;
  phys::Topology topo{sim};

  ServerParams sp;
  sp.sid = ServerId{1};
  sp.workers = 4;
  sp.response_fragments = 3;
  Server& server = topo.add_node<Server>(
      sim, sp, std::make_shared<SyntheticService>(JitterModel{0.0, 15.0}),
      Rng{7});

  ClientParams cp;
  cp.client_id = 0;
  cp.mode = SendMode::kViaSwitch;  // single packet to `target`
  cp.target = server_ip(ServerId{1});
  cp.rate_rps = 200000.0;
  cp.num_filter_tables = 4;  // >= response fragment count
  cp.stop_at = SimTime::milliseconds(1);
  Client& client = topo.add_node<Client>(
      sim, cp, std::make_shared<FixedWorkload>(10.0), Rng{11});

  topo.connect(client, server);
  client.start();
  sim.run();

  const ClientStats& cs = client.stats();
  EXPECT_GT(cs.requests_sent, 50U);
  EXPECT_EQ(cs.completed, cs.requests_sent);
  EXPECT_EQ(cs.unmatched_responses, 0U);
  EXPECT_EQ(cs.redundant_responses, 0U);
  // Every completion took all three fragments: the server sent exactly
  // 3 frames per response.
  EXPECT_EQ(server.stats().responses_total, cs.completed);
}

TEST(ServerFragments, SingleFragmentResponseUnchanged) {
  Rig rig{params_with(2)};
  rig.inject(make_request(0, 5, 0, 0, 10000));
  rig.sim.run();
  const auto resp = rig.responses();
  ASSERT_EQ(resp.size(), 1U);
  EXPECT_EQ(resp[0].nc().frag_idx, 0);
  EXPECT_EQ(resp[0].nc().frag_count, 1);
}

}  // namespace
}  // namespace netclone::host

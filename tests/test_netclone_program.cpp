#include "core/netclone_program.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "host/addressing.hpp"
#include "test_util.hpp"

namespace netclone::core {
namespace {

using netclone::testing::make_request;
using netclone::testing::make_response;
using netclone::testing::run_ingress;

constexpr std::size_t kPortSrv0 = 10;
constexpr std::size_t kPortSrv1 = 11;
constexpr std::size_t kPortSrv2 = 12;
constexpr std::size_t kPortClient = 20;
constexpr std::size_t kPortChainNext = 30;
constexpr std::uint16_t kMcastSrv0 = 1;
constexpr std::uint16_t kMcastSrv1 = 2;
constexpr std::uint16_t kMcastSrv2 = 3;

class NetCloneProgramTest : public ::testing::Test {
 protected:
  NetCloneProgramTest() : program_(pipeline_, make_config()) {
    program_.add_server(ServerId{0}, host::server_ip(ServerId{0}), kPortSrv0,
                        kMcastSrv0);
    program_.add_server(ServerId{1}, host::server_ip(ServerId{1}), kPortSrv1,
                        kMcastSrv1);
    program_.add_server(ServerId{2}, host::server_ip(ServerId{2}), kPortSrv2,
                        kMcastSrv2);
    program_.install_groups(build_group_pairs(3));
    program_.add_route(host::client_ip(0), kPortClient);
  }

  static NetCloneConfig make_config() {
    NetCloneConfig cfg;
    cfg.filter_slots = 64;  // small tables force collisions in tests
    return cfg;
  }

  /// Marks a server as busy in the tracked state via a response.
  void set_state(ServerId sid, std::uint16_t qlen) {
    wire::Packet req = make_request(0, 1, 0, 0);
    wire::Packet resp = make_response(sid, qlen, req);
    (void)run_ingress(program_, pipeline_, resp);
  }

  pisa::Pipeline pipeline_;
  NetCloneProgram program_;
};

TEST_F(NetCloneProgramTest, AssignsMonotonicRequestIds) {
  for (std::uint32_t i = 1; i <= 5; ++i) {
    wire::Packet pkt = make_request(0, i, 0, 0);
    (void)run_ingress(program_, pipeline_, pkt);
    EXPECT_EQ(pkt.nc().req_id, i);
  }
  EXPECT_EQ(program_.stats().requests, 5U);
}

TEST_F(NetCloneProgramTest, BothIdleClonesViaMulticast) {
  // Group 0 of build_group_pairs(3) is {0, 1}; initial states are idle.
  wire::Packet pkt = make_request(0, 1, /*grp=*/0, /*idx=*/0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_FALSE(md.drop);
  ASSERT_TRUE(md.multicast_group.has_value());
  EXPECT_EQ(*md.multicast_group, kMcastSrv0);
  EXPECT_EQ(pkt.nc().clo, wire::CloneStatus::kClonedOriginal);
  EXPECT_EQ(pkt.nc().sid, 1);  // second candidate for the recirc copy
  EXPECT_EQ(pkt.ip.dst, host::server_ip(ServerId{0}));
  EXPECT_EQ(program_.stats().cloned_requests, 1U);
}

TEST_F(NetCloneProgramTest, FirstCandidateBusyForwardsWithoutCloning) {
  set_state(ServerId{0}, 3);
  wire::Packet pkt = make_request(0, 1, 0, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_FALSE(md.multicast_group.has_value());
  EXPECT_EQ(md.egress_port, kPortSrv0);  // still goes to srv1 of the group
  EXPECT_EQ(pkt.nc().clo, wire::CloneStatus::kNotCloned);
}

TEST_F(NetCloneProgramTest, SecondCandidateBusyForwardsWithoutCloning) {
  set_state(ServerId{1}, 1);
  wire::Packet pkt = make_request(0, 1, 0, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_FALSE(md.multicast_group.has_value());
  EXPECT_EQ(md.egress_port, kPortSrv0);
}

TEST_F(NetCloneProgramTest, StateRecoversWhenQueueEmpties) {
  set_state(ServerId{0}, 5);
  set_state(ServerId{0}, 0);
  wire::Packet pkt = make_request(0, 1, 0, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_TRUE(md.multicast_group.has_value());
}

TEST_F(NetCloneProgramTest, RecirculatedCloneSteeredToSecondCandidate) {
  wire::Packet pkt = make_request(0, 1, 0, 0);
  (void)run_ingress(program_, pipeline_, pkt);  // clones; sid = 1

  // The multicast copy re-enters ingress through the loopback port.
  wire::Packet clone = pkt;
  const auto md =
      run_ingress(program_, pipeline_, clone, 0, /*recirculated=*/true);
  EXPECT_EQ(clone.nc().clo, wire::CloneStatus::kClonedCopy);
  EXPECT_EQ(clone.ip.dst, host::server_ip(ServerId{1}));
  EXPECT_EQ(md.egress_port, kPortSrv1);
  EXPECT_EQ(clone.nc().req_id, pkt.nc().req_id);  // shared request id
  EXPECT_EQ(program_.stats().recirculated_clones, 1U);
}

TEST_F(NetCloneProgramTest, ResponseUpdatesBothStateTables) {
  wire::Packet req = make_request(0, 1, 0, 0);
  wire::Packet resp = make_response(ServerId{2}, 7, req);
  const auto md = run_ingress(program_, pipeline_, resp);
  EXPECT_EQ(md.egress_port, kPortClient);
  EXPECT_EQ(program_.peek_state(ServerId{2}), 7);
}

TEST_F(NetCloneProgramTest, NonClonedResponseSkipsFilter) {
  wire::Packet req = make_request(0, 1, 0, 0);
  wire::Packet resp = make_response(ServerId{0}, 0, req);
  resp.nc().clo = wire::CloneStatus::kNotCloned;
  resp.nc().req_id = 42;
  const auto md = run_ingress(program_, pipeline_, resp);
  EXPECT_FALSE(md.drop);
  EXPECT_EQ(program_.stats().fingerprints_stored, 0U);
}

TEST_F(NetCloneProgramTest, FasterResponseForwardedSlowerDropped) {
  wire::Packet req = make_request(0, 1, 0, 1);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  req.nc().req_id = 77;

  wire::Packet faster = make_response(ServerId{0}, 0, req);
  const auto md1 = run_ingress(program_, pipeline_, faster);
  EXPECT_FALSE(md1.drop);
  EXPECT_EQ(program_.stats().fingerprints_stored, 1U);

  wire::Packet slower = make_response(ServerId{1}, 0, req);
  slower.nc().clo = wire::CloneStatus::kClonedCopy;
  const auto md2 = run_ingress(program_, pipeline_, slower);
  EXPECT_TRUE(md2.drop);
  EXPECT_EQ(program_.stats().filtered_responses, 1U);

  // The slot was cleared: a later request reusing the hash slot works.
  const std::uint32_t slot = NetCloneProgram::filter_hash(77, 64);
  EXPECT_EQ(program_.peek_filter_slot(1, slot), 0U);
}

TEST_F(NetCloneProgramTest, SlotClearedAllowsImmediateReuse) {
  wire::Packet req = make_request(0, 1, 0, 0);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  req.nc().req_id = 100;
  wire::Packet r1 = make_response(ServerId{0}, 0, req);
  wire::Packet r2 = make_response(ServerId{1}, 0, req);
  (void)run_ingress(program_, pipeline_, r1);
  (void)run_ingress(program_, pipeline_, r2);

  // Same slot, new request id: full cycle again.
  req.nc().req_id = 200;
  wire::Packet r3 = make_response(ServerId{0}, 0, req);
  wire::Packet r4 = make_response(ServerId{1}, 0, req);
  EXPECT_FALSE(run_ingress(program_, pipeline_, r3).drop);
  EXPECT_TRUE(run_ingress(program_, pipeline_, r4).drop);
}

TEST_F(NetCloneProgramTest, CollisionOverwritesInsteadOfWedging) {
  // Two cloned requests whose ids collide in the same table (§3.5: the
  // overwrite is deliberate; the orphaned slower response then passes).
  const std::uint32_t id_a = 5;
  std::uint32_t id_b = 6;
  const std::uint32_t slots = 64;
  while (NetCloneProgram::filter_hash(id_b, slots) !=
         NetCloneProgram::filter_hash(id_a, slots)) {
    ++id_b;
  }

  wire::Packet req = make_request(0, 1, 0, 0);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;

  req.nc().req_id = id_a;
  wire::Packet fast_a = make_response(ServerId{0}, 0, req);
  EXPECT_FALSE(run_ingress(program_, pipeline_, fast_a).drop);

  req.nc().req_id = id_b;
  wire::Packet fast_b = make_response(ServerId{0}, 0, req);
  EXPECT_FALSE(run_ingress(program_, pipeline_, fast_b).drop);  // overwrite

  // A's slower response no longer matches (fingerprint was overwritten):
  // it is forwarded — redundant at the client but never lost — and, being
  // a non-match, it overwrites the slot again with id_a.
  req.nc().req_id = id_a;
  wire::Packet slow_a = make_response(ServerId{1}, 0, req);
  EXPECT_FALSE(run_ingress(program_, pipeline_, slow_a).drop);
  EXPECT_EQ(program_.peek_filter_slot(
                0, NetCloneProgram::filter_hash(id_a, 64)),
            id_a);

  // B's slower response therefore also misses and cascades through — a
  // collision degrades gracefully into client-side redundancy, never into
  // a lost response (the client still filters duplicates itself).
  req.nc().req_id = id_b;
  wire::Packet slow_b = make_response(ServerId{1}, 0, req);
  EXPECT_FALSE(run_ingress(program_, pipeline_, slow_b).drop);
  EXPECT_EQ(program_.stats().filtered_responses, 0U);
}

TEST_F(NetCloneProgramTest, DifferentTableIndexAvoidsCollision) {
  // Same hash slot but different IDX -> different tables, no interference.
  const std::uint32_t id_a = 5;
  std::uint32_t id_b = 6;
  while (NetCloneProgram::filter_hash(id_b, 64) !=
         NetCloneProgram::filter_hash(id_a, 64)) {
    ++id_b;
  }
  wire::Packet req_a = make_request(0, 1, 0, /*idx=*/0);
  req_a.nc().clo = wire::CloneStatus::kClonedOriginal;
  req_a.nc().req_id = id_a;
  wire::Packet req_b = make_request(0, 2, 0, /*idx=*/1);
  req_b.nc().clo = wire::CloneStatus::kClonedOriginal;
  req_b.nc().req_id = id_b;

  wire::Packet fast_a = make_response(ServerId{0}, 0, req_a);
  wire::Packet fast_b = make_response(ServerId{0}, 0, req_b);
  EXPECT_FALSE(run_ingress(program_, pipeline_, fast_a).drop);
  EXPECT_FALSE(run_ingress(program_, pipeline_, fast_b).drop);

  // Both slower responses are individually filtered: no cross-table damage.
  wire::Packet slow_a = make_response(ServerId{1}, 0, req_a);
  wire::Packet slow_b = make_response(ServerId{1}, 0, req_b);
  EXPECT_TRUE(run_ingress(program_, pipeline_, slow_a).drop);
  EXPECT_TRUE(run_ingress(program_, pipeline_, slow_b).drop);
}

TEST_F(NetCloneProgramTest, LostSlowerResponseDoesNotWedgeSlot) {
  // Fingerprint stored, slower response lost in the network. A different
  // request hashing to the same slot must still work via overwrite (§3.6).
  const std::uint32_t id_a = 9;
  std::uint32_t id_b = 10;
  while (NetCloneProgram::filter_hash(id_b, 64) !=
         NetCloneProgram::filter_hash(id_a, 64)) {
    ++id_b;
  }
  wire::Packet req = make_request(0, 1, 0, 0);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  req.nc().req_id = id_a;
  wire::Packet fast_a = make_response(ServerId{0}, 0, req);
  EXPECT_FALSE(run_ingress(program_, pipeline_, fast_a).drop);
  // (slower response of id_a never arrives)

  req.nc().req_id = id_b;
  wire::Packet fast_b = make_response(ServerId{0}, 0, req);
  wire::Packet slow_b = make_response(ServerId{1}, 0, req);
  EXPECT_FALSE(run_ingress(program_, pipeline_, fast_b).drop);
  EXPECT_TRUE(run_ingress(program_, pipeline_, slow_b).drop);
}

TEST_F(NetCloneProgramTest, FilteringDisabledForwardsDuplicates) {
  NetCloneConfig cfg = make_config();
  cfg.enable_filtering = false;
  pisa::Pipeline pipeline;
  NetCloneProgram program{pipeline, cfg};
  program.add_server(ServerId{0}, host::server_ip(ServerId{0}), kPortSrv0,
                     kMcastSrv0);
  program.add_server(ServerId{1}, host::server_ip(ServerId{1}), kPortSrv1,
                     kMcastSrv1);
  program.install_groups(build_group_pairs(2));
  program.add_route(host::client_ip(0), kPortClient);

  wire::Packet req = make_request(0, 1, 0, 0);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  req.nc().req_id = 3;
  wire::Packet r1 = make_response(ServerId{0}, 0, req);
  wire::Packet r2 = make_response(ServerId{1}, 0, req);
  EXPECT_FALSE(run_ingress(program, pipeline, r1).drop);
  EXPECT_FALSE(run_ingress(program, pipeline, r2).drop);  // duplicate passes
  EXPECT_EQ(program.stats().filtered_responses, 0U);
}

TEST_F(NetCloneProgramTest, UnknownGroupDropsRequest) {
  wire::Packet pkt = make_request(0, 1, /*grp=*/999, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_TRUE(md.drop);
  EXPECT_EQ(program_.stats().missing_route_drops, 1U);
}

TEST_F(NetCloneProgramTest, MalformedFreshCloIsDropped) {
  wire::Packet pkt = make_request(0, 1, 0, 0);
  pkt.nc().clo = wire::CloneStatus::kClonedCopy;
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_TRUE(md.drop);
}

TEST_F(NetCloneProgramTest, StampsSwitchIdOnFreshRequests) {
  wire::Packet pkt = make_request(0, 1, 0, 0);
  EXPECT_EQ(pkt.nc().switch_id, 0);
  (void)run_ingress(program_, pipeline_, pkt);
  EXPECT_EQ(pkt.nc().switch_id, program_.config().switch_id);
}

TEST_F(NetCloneProgramTest, ForeignTorPacketsOnlyRouted) {
  wire::Packet pkt = make_request(0, 1, 0, 0);
  pkt.nc().switch_id = 42;  // stamped by another rack's ToR
  pkt.ip.dst = host::client_ip(0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_EQ(md.egress_port, kPortClient);
  EXPECT_EQ(pkt.nc().req_id, 0U);  // untouched: no NetClone processing
  EXPECT_EQ(program_.stats().foreign_packets, 1U);
  EXPECT_EQ(program_.stats().requests, 0U);
}

TEST_F(NetCloneProgramTest, NonNetClonePacketsUseL3Routing) {
  wire::Packet pkt;
  pkt.ip.src = host::server_ip(ServerId{0});
  pkt.ip.dst = host::client_ip(0);
  pkt.udp.src_port = 5555;
  pkt.udp.dst_port = 6666;
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_EQ(md.egress_port, kPortClient);
}

TEST_F(NetCloneProgramTest, RemovedServerDropsInFlightClones) {
  wire::Packet pkt = make_request(0, 1, 0, 0);
  (void)run_ingress(program_, pipeline_, pkt);  // cloned toward sid 1
  program_.remove_server(ServerId{1});

  wire::Packet clone = pkt;
  const auto md =
      run_ingress(program_, pipeline_, clone, 0, /*recirculated=*/true);
  EXPECT_TRUE(md.drop);
}

TEST_F(NetCloneProgramTest, SequenceResetsAfterSoftStateWipe) {
  wire::Packet pkt = make_request(0, 1, 0, 0);
  (void)run_ingress(program_, pipeline_, pkt);
  EXPECT_EQ(pkt.nc().req_id, 1U);
  pipeline_.reset_soft_state();  // switch reboot (§3.6)
  wire::Packet pkt2 = make_request(0, 2, 0, 0);
  (void)run_ingress(program_, pipeline_, pkt2);
  EXPECT_EQ(pkt2.nc().req_id, 1U);  // restarts from 0 harmlessly
}

TEST_F(NetCloneProgramTest, BadIdxToleratedByModulo) {
  wire::Packet req = make_request(0, 1, 0, /*idx=*/7);  // only 2 tables
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  req.nc().req_id = 55;
  wire::Packet fast = make_response(ServerId{0}, 0, req);
  wire::Packet slow = make_response(ServerId{1}, 0, req);
  EXPECT_FALSE(run_ingress(program_, pipeline_, fast).drop);
  EXPECT_TRUE(run_ingress(program_, pipeline_, slow).drop);
}

TEST_F(NetCloneProgramTest, ConfigValidation) {
  pisa::Pipeline pipeline;
  NetCloneConfig cfg;
  cfg.num_filter_tables = 0;
  EXPECT_THROW((void)NetCloneProgram(pipeline, cfg), CheckFailure);
}

TEST_F(NetCloneProgramTest, TorIsAChainOfOne) {
  EXPECT_EQ(program_.role().chain_length, 1U);
  EXPECT_TRUE(program_.role().is_tail());
  EXPECT_TRUE(program_.chain_member());
  EXPECT_FALSE(program_.chain_next().has_value());
  EXPECT_TRUE(program_.is_chain_tail());
  EXPECT_FALSE(program_.replicated());

  // The tail enacts each hit on the spot: hits and drops count alike.
  wire::Packet req = make_request(0, 1, 0, 0);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  req.nc().req_id = 31;
  wire::Packet fast = make_response(ServerId{0}, 0, req);
  wire::Packet slow = make_response(ServerId{1}, 0, req);
  EXPECT_FALSE(run_ingress(program_, pipeline_, fast).drop);
  EXPECT_TRUE(run_ingress(program_, pipeline_, slow).drop);
  EXPECT_EQ(program_.stats().filter_hits, 1U);
  EXPECT_EQ(program_.stats().filtered_responses, 1U);
  EXPECT_EQ(program_.stats().chain_forwards, 0U);
}

TEST_F(NetCloneProgramTest, ForgedChainSyncMarkerTouchesNoRegister) {
  // A ToR holds no sync hub. A marker off the wire is dropped and
  // counted, not taken for a response carrying state 7 for server 1.
  wire::Packet marker = make_request(0, 1, 0, 0);
  marker.nc().type = wire::MsgType::kChainSync;
  marker.nc().sid = 1;
  marker.nc().state = 7;
  marker.ip.dst = host::client_ip(0);
  const auto md = run_ingress(program_, pipeline_, marker);
  EXPECT_TRUE(md.drop);
  EXPECT_EQ(program_.peek_state(ServerId{1}), 0);
  EXPECT_EQ(program_.stats().responses, 0U);
  EXPECT_EQ(program_.stats().unusable_sync_markers, 1U);
}

TEST(NetCloneChainConfig, ReplicatedChainNeedsClientTupleIds) {
  pisa::Pipeline pipeline;
  AggChainRole role;
  role.chain_length = 2;
  role.chain_next_port = kPortChainNext;
  EXPECT_THROW((void)NetCloneProgram(pipeline, NetCloneConfig{}, role),
               CheckFailure);
  NetCloneConfig cfg;
  cfg.id_mode = RequestIdMode::kClientTuple;
  EXPECT_NO_THROW((void)NetCloneProgram(pipeline, cfg, role));
}

/// Three replicas of one chain, each on its own pipeline, all sharing a
/// sync hub. Tests hand a packet from replica to replica, as the chain
/// links would.
class NetCloneChainTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kReplicas = 3;

  NetCloneChainTest() {
    for (std::size_t i = 0; i < kReplicas; ++i) {
      AggChainRole role;
      role.replica_index = i;
      role.chain_length = kReplicas;
      if (i + 1 < kReplicas) {
        role.chain_next_port = kPortChainNext;
      }
      NetCloneConfig cfg;
      cfg.filter_slots = 64;
      cfg.id_mode = RequestIdMode::kClientTuple;
      replicas_.push_back(
          std::make_unique<NetCloneProgram>(pipelines_[i], cfg, role));
      NetCloneProgram& replica = *replicas_.back();
      replica.set_sync_hub(hub_);
      replica.add_server(ServerId{0}, host::server_ip(ServerId{0}),
                         kPortSrv0, kMcastSrv0);
      replica.add_server(ServerId{1}, host::server_ip(ServerId{1}),
                         kPortSrv1, kMcastSrv1);
      replica.add_server(ServerId{2}, host::server_ip(ServerId{2}),
                         kPortSrv2, kMcastSrv2);
      replica.install_groups(build_group_pairs(3));
      replica.add_route(host::client_ip(0), kPortClient);
    }
  }

  NetCloneProgram& replica(std::size_t i) { return *replicas_[i]; }

  /// Runs `pkt` through replica `i`.
  pisa::PacketMetadata hop(std::size_t i, wire::Packet& pkt) {
    return run_ingress(*replicas_[i], pipelines_[i], pkt);
  }

  /// A chain-sync marker naming hub record `sync_id`.
  static wire::Packet marker(std::uint32_t sync_id) {
    wire::Packet pkt = make_request(0, 1, 0, 0);
    pkt.nc().type = wire::MsgType::kChainSync;
    pkt.nc().req_id = sync_id;
    return pkt;
  }

  /// The two responses of one cloned request, faster first.
  static std::array<wire::Packet, 2> cloned_responses(std::uint32_t req_id) {
    wire::Packet req = make_request(0, 1, 0, 0);
    req.nc().clo = wire::CloneStatus::kClonedOriginal;
    req.nc().req_id = req_id;
    wire::Packet slower = make_response(ServerId{1}, 0, req);
    slower.nc().clo = wire::CloneStatus::kClonedCopy;
    return {make_response(ServerId{0}, 3, req), slower};
  }

  std::array<pisa::Pipeline, kReplicas> pipelines_;
  std::shared_ptr<AggChainSyncHub> hub_ =
      std::make_shared<AggChainSyncHub>();
  std::vector<std::unique_ptr<NetCloneProgram>> replicas_;
};

TEST_F(NetCloneChainTest, HeadAndMiddleRelayBothResponsesTailFilters) {
  auto [faster, slower] = cloned_responses(77);
  for (std::size_t i = 0; i + 1 < kReplicas; ++i) {
    const auto md = hop(i, faster);
    EXPECT_FALSE(md.drop) << "replica " << i;
    EXPECT_EQ(md.egress_port, kPortChainNext) << "replica " << i;
  }
  EXPECT_EQ(hop(2, faster).egress_port, kPortClient);

  // Upstream replicas hit the fingerprint but relay the duplicate anyway;
  // only the tail enacts the verdict.
  for (std::size_t i = 0; i + 1 < kReplicas; ++i) {
    const auto md = hop(i, slower);
    EXPECT_FALSE(md.drop) << "replica " << i;
    EXPECT_EQ(md.egress_port, kPortChainNext) << "replica " << i;
    const NetCloneProgramStats& ps = replica(i).stats();
    EXPECT_EQ(ps.filter_hits, 1U) << "replica " << i;
    EXPECT_EQ(ps.fingerprints_stored, 1U) << "replica " << i;
    EXPECT_EQ(ps.chain_forwards, 2U) << "replica " << i;
    EXPECT_EQ(ps.filtered_responses, 0U) << "replica " << i;
  }
  EXPECT_TRUE(hop(2, slower).drop);
  const NetCloneProgramStats& tail = replica(2).stats();
  EXPECT_EQ(tail.filter_hits, 1U);
  EXPECT_EQ(tail.filtered_responses, 1U);
  EXPECT_EQ(tail.chain_forwards, 0U);

  // Every replica applied the same stream: identical soft state.
  EXPECT_EQ(replica(0).peek_state(ServerId{0}), 3);
  for (std::size_t i = 1; i < kReplicas; ++i) {
    EXPECT_EQ(replica(i).soft_state_digest(), replica(0).soft_state_digest())
        << "replica " << i;
  }
}

TEST_F(NetCloneChainTest, NonMemberDropsResponsesAndKeepsItsState) {
  replica(1).set_chain_member(false);
  EXPECT_FALSE(replica(1).is_chain_tail());
  auto [faster, slower] = cloned_responses(5);
  const auto md = hop(1, faster);
  EXPECT_TRUE(md.drop);
  EXPECT_EQ(replica(1).peek_state(ServerId{0}), 0);
  EXPECT_EQ(replica(1).filter_occupancy(), 0U);
  EXPECT_EQ(replica(1).stats().non_member_response_drops, 1U);
  EXPECT_EQ(replica(1).stats().responses, 0U);
}

TEST_F(NetCloneChainTest, ReplayedMarkerIsStaleAndNotInstalled) {
  hub_->create(1);
  wire::Packet sync = marker(1);
  EXPECT_EQ(hop(0, sync).egress_port, kPortChainNext);  // fills
  EXPECT_EQ(hop(1, sync).egress_port, kPortChainNext);  // installs
  EXPECT_TRUE(hop(2, sync).drop);                       // installs, consumes
  EXPECT_EQ(replica(0).stats().chain_sync_snapshots_filled, 1U);
  EXPECT_EQ(replica(1).stats().chain_sync_installs, 1U);
  EXPECT_EQ(replica(2).stats().chain_sync_consumed, 1U);

  // Newer state reaches the middle replica after the cut.
  auto [faster, slower] = cloned_responses(9);
  (void)hop(1, faster);
  ASSERT_EQ(replica(1).peek_state(ServerId{0}), 3);

  // A replay of the old marker must not roll that state back.
  wire::Packet replay = marker(1);
  EXPECT_EQ(hop(1, replay).egress_port, kPortChainNext);
  EXPECT_EQ(replica(1).stats().chain_sync_stale, 1U);
  EXPECT_EQ(replica(1).stats().chain_sync_installs, 1U);
  EXPECT_EQ(replica(1).peek_state(ServerId{0}), 3);
}

TEST_F(NetCloneChainTest, AdmitMarkerMakesItsTargetTheTail) {
  // The tail crashed and was spliced out; replica 1 took over the tail.
  replica(2).set_chain_member(false);
  replica(1).set_chain_next(std::nullopt);
  ASSERT_TRUE(replica(1).is_chain_tail());
  auto [faster, slower] = cloned_responses(12);
  (void)hop(0, faster);
  EXPECT_EQ(hop(1, faster).egress_port, kPortClient);

  // Rejoin: the old tail fills the admit record and adopts the rejoiner
  // as its successor; the rejoiner installs the snapshot and becomes the
  // tail.
  AggChainSyncRecord& admit = hub_->create(4);
  admit.filler_next_port = kPortChainNext;
  admit.admit_target = 2;
  wire::Packet sync = marker(4);
  EXPECT_EQ(hop(1, sync).egress_port, kPortChainNext);
  EXPECT_TRUE(hop(2, sync).drop);

  EXPECT_EQ(replica(1).chain_next(), kPortChainNext);
  EXPECT_FALSE(replica(1).is_chain_tail());
  EXPECT_TRUE(replica(2).chain_member());
  EXPECT_TRUE(replica(2).is_chain_tail());
  EXPECT_EQ(replica(2).stats().chain_sync_consumed, 1U);
  EXPECT_EQ(replica(2).stats().chain_sync_fingerprints_adopted, 1U);
  EXPECT_EQ(replica(2).soft_state_digest(), replica(1).soft_state_digest());

  // The new tail enacts the verdict on the duplicate it never stored.
  (void)hop(0, slower);
  EXPECT_EQ(hop(1, slower).egress_port, kPortChainNext);
  EXPECT_TRUE(hop(2, slower).drop);
  EXPECT_EQ(replica(2).stats().filtered_responses, 1U);
}

TEST_F(NetCloneChainTest, MarkerNamingAnUnknownRecordIsDropped) {
  hub_->create(1);
  wire::Packet sync = marker(99);
  const auto md = hop(1, sync);
  EXPECT_TRUE(md.drop);
  EXPECT_EQ(replica(1).stats().unusable_sync_markers, 1U);
  EXPECT_EQ(replica(1).stats().chain_sync_markers, 0U);
  EXPECT_FALSE(hub_->find(1)->filled);
}

}  // namespace
}  // namespace netclone::core

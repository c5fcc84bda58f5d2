// RackSched [44] and the §3.7 NetClone x RackSched integration: both run
// the NetClone program, under its two shorter-queue steering policies.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/groups.hpp"
#include "core/netclone_program.hpp"
#include "test_util.hpp"

namespace netclone::core {
namespace {

using netclone::testing::make_request;
using netclone::testing::make_response;
using netclone::testing::run_ingress;

constexpr std::size_t kPortSrv0 = 10;
constexpr std::size_t kPortSrv1 = 11;
constexpr std::size_t kPortClient = 20;

/// The program under `steering`, with two servers (clone groups 1 and 2),
/// groups {0, 1} and {1, 0}, and a route to client 0.
class SteeringTest : public ::testing::Test {
 protected:
  explicit SteeringTest(Steering steering)
      : program_(pipeline_, small_config(), AggChainRole{}, steering) {
    program_.add_server(ServerId{0}, host::server_ip(ServerId{0}), kPortSrv0,
                        1);
    program_.add_server(ServerId{1}, host::server_ip(ServerId{1}), kPortSrv1,
                        2);
    program_.install_groups(build_group_pairs(2));
    program_.add_route(host::client_ip(0), kPortClient);
  }

  static NetCloneConfig small_config() {
    NetCloneConfig cfg;
    cfg.filter_slots = 64;
    return cfg;
  }

  void set_load(ServerId sid, std::uint16_t qlen) {
    wire::Packet req = make_request(0, 1, 0, 0);
    wire::Packet resp = make_response(sid, qlen, req);
    (void)run_ingress(program_, pipeline_, resp);
  }

  pisa::Pipeline pipeline_;
  NetCloneProgram program_;
};

// RackSched: never clone; join the shorter of the two candidates' tracked
// queues. The pair is the group the client drew.
class RackSchedTest : public SteeringTest {
 protected:
  RackSchedTest() : SteeringTest(Steering::kShorterQueue) {}
};

TEST_F(RackSchedTest, ForwardsToSomeServerInitially) {
  wire::Packet pkt = make_request(0, 1, 0, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  ASSERT_TRUE(md.egress_port.has_value());
  EXPECT_TRUE(*md.egress_port == kPortSrv0 || *md.egress_port == kPortSrv1);
  EXPECT_TRUE(pkt.ip.dst == host::server_ip(ServerId{0}) ||
              pkt.ip.dst == host::server_ip(ServerId{1}));
}

TEST_F(RackSchedTest, NeverClonesEvenWhenBothIdle) {
  for (std::uint16_t grp = 0; grp < 2; ++grp) {
    wire::Packet pkt = make_request(0, 1U + grp, grp, 0);
    const auto md = run_ingress(program_, pipeline_, pkt);
    EXPECT_FALSE(md.multicast_group.has_value());
    EXPECT_EQ(pkt.nc().clo, wire::CloneStatus::kNotCloned);
    // Ties go to the group's first candidate.
    EXPECT_EQ(md.egress_port, grp == 0 ? kPortSrv0 : kPortSrv1);
  }
  EXPECT_EQ(program_.stats().requests, 2U);
  EXPECT_EQ(program_.stats().cloned_requests, 0U);
}

TEST_F(RackSchedTest, JoinsTheShorterQueue) {
  set_load(ServerId{0}, 9);
  set_load(ServerId{1}, 0);
  // With two servers every group holds both; the min must win in either
  // order.
  for (int i = 0; i < 50; ++i) {
    wire::Packet pkt =
        make_request(0, 1, static_cast<std::uint16_t>(i % 2), 0);
    const auto md = run_ingress(program_, pipeline_, pkt);
    EXPECT_EQ(*md.egress_port, kPortSrv1);
  }
}

TEST_F(RackSchedTest, LoadUpdateFlipsDecision) {
  set_load(ServerId{0}, 9);
  set_load(ServerId{1}, 0);
  set_load(ServerId{0}, 0);
  set_load(ServerId{1}, 5);
  for (int i = 0; i < 50; ++i) {
    wire::Packet pkt =
        make_request(0, 1, static_cast<std::uint16_t>(i % 2), 0);
    const auto md = run_ingress(program_, pipeline_, pkt);
    EXPECT_EQ(*md.egress_port, kPortSrv0);
  }
}

TEST_F(RackSchedTest, ResponsesRoutedToClient) {
  wire::Packet req = make_request(0, 1, 0, 0);
  wire::Packet resp = make_response(ServerId{0}, 2, req);
  const auto md = run_ingress(program_, pipeline_, resp);
  EXPECT_EQ(*md.egress_port, kPortClient);
  EXPECT_EQ(program_.stats().responses, 1U);
}

TEST_F(RackSchedTest, EqualLoadsSpreadAcrossBoth) {
  // The switch draws nothing: the client's uniform GRP draw is the first
  // sample, and ties break toward it.
  Rng rng{7};
  int to_zero = 0;
  for (int i = 0; i < 200; ++i) {
    const auto grp = static_cast<std::uint16_t>(rng.next_below(2));
    wire::Packet pkt = make_request(0, 1, grp, 0);
    const auto md = run_ingress(program_, pipeline_, pkt);
    to_zero += *md.egress_port == kPortSrv0 ? 1 : 0;
  }
  EXPECT_GT(to_zero, 50);
  EXPECT_LT(to_zero, 150);
}

// The §3.7 integration: Algorithm 1's cloning, with uncloned requests
// joining the shorter tracked queue.
class IntegrationTest : public SteeringTest {
 protected:
  IntegrationTest() : SteeringTest(Steering::kCloneOrShorterQueue) {}
};

TEST_F(IntegrationTest, BothQueuesEmptyClones) {
  wire::Packet pkt = make_request(0, 1, /*grp=*/0, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  ASSERT_TRUE(md.multicast_group.has_value());
  EXPECT_EQ(pkt.nc().clo, wire::CloneStatus::kClonedOriginal);
  EXPECT_EQ(pkt.nc().sid, 1);
  EXPECT_EQ(program_.stats().cloned_requests, 1U);
}

TEST_F(IntegrationTest, FallsBackToJsqWhenBusy) {
  set_load(ServerId{0}, 5);
  set_load(ServerId{1}, 2);
  // Group 0 = {0, 1}: srv2 has the shorter queue -> JSQ picks it.
  wire::Packet pkt = make_request(0, 1, 0, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_FALSE(md.multicast_group.has_value());
  EXPECT_EQ(*md.egress_port, kPortSrv1);
  EXPECT_EQ(pkt.ip.dst, host::server_ip(ServerId{1}));
  EXPECT_EQ(program_.stats().cloned_requests, 0U);
  EXPECT_EQ(pkt.nc().clo, wire::CloneStatus::kNotCloned);
}

TEST_F(IntegrationTest, TieBreaksToFirstCandidate) {
  set_load(ServerId{0}, 3);
  set_load(ServerId{1}, 3);
  wire::Packet pkt = make_request(0, 1, 0, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_EQ(*md.egress_port, kPortSrv0);
}

TEST_F(IntegrationTest, OneEmptyOneBusyJoinsEmpty) {
  set_load(ServerId{0}, 4);
  set_load(ServerId{1}, 0);
  // Not both empty -> no cloning, JSQ to the empty queue.
  wire::Packet pkt = make_request(0, 1, 0, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_FALSE(md.multicast_group.has_value());
  EXPECT_EQ(*md.egress_port, kPortSrv1);
}

TEST_F(IntegrationTest, WriteRequestsGoUnclonedToTheFirstCandidate) {
  // §5.5: a write is never cloned, and it skips the shorter-queue choice
  // too: it goes to its group's first candidate, as under NetClone.
  wire::Packet idle = make_request(0, 1, /*grp=*/0, 0);
  idle.nc().type = wire::MsgType::kWriteRequest;
  auto md = run_ingress(program_, pipeline_, idle);
  EXPECT_FALSE(md.multicast_group.has_value());
  EXPECT_EQ(md.egress_port, kPortSrv0);
  EXPECT_EQ(idle.nc().clo, wire::CloneStatus::kNotCloned);
  EXPECT_EQ(idle.ip.dst, host::server_ip(ServerId{0}));

  set_load(ServerId{0}, 5);
  wire::Packet busy = make_request(0, 2, /*grp=*/0, 0);
  busy.nc().type = wire::MsgType::kWriteRequest;
  md = run_ingress(program_, pipeline_, busy);
  EXPECT_FALSE(md.multicast_group.has_value());
  EXPECT_EQ(md.egress_port, kPortSrv0);
  EXPECT_EQ(program_.stats().write_requests, 2U);
  EXPECT_EQ(program_.stats().cloned_requests, 0U);
}

TEST_F(IntegrationTest, RecirculatedCloneSteered) {
  wire::Packet pkt = make_request(0, 1, 0, 0);
  (void)run_ingress(program_, pipeline_, pkt);
  wire::Packet clone = pkt;
  const auto md =
      run_ingress(program_, pipeline_, clone, 0, /*recirculated=*/true);
  EXPECT_EQ(clone.nc().clo, wire::CloneStatus::kClonedCopy);
  EXPECT_EQ(*md.egress_port, kPortSrv1);
}

TEST_F(IntegrationTest, FilteringStillWorks) {
  wire::Packet req = make_request(0, 1, 0, 0);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  req.nc().req_id = 42;
  wire::Packet fast = make_response(ServerId{0}, 0, req);
  wire::Packet slow = make_response(ServerId{1}, 0, req);
  EXPECT_FALSE(run_ingress(program_, pipeline_, fast).drop);
  EXPECT_TRUE(run_ingress(program_, pipeline_, slow).drop);
  EXPECT_EQ(program_.stats().filtered_responses, 1U);
}

TEST_F(IntegrationTest, ResponseUpdatesLoadTables) {
  set_load(ServerId{1}, 7);
  // Load 7 on srv 1 blocks cloning for group 0 = {0, 1}.
  wire::Packet pkt = make_request(0, 1, 0, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  EXPECT_FALSE(md.multicast_group.has_value());
  EXPECT_EQ(*md.egress_port, kPortSrv0);  // 0 < 7
}

}  // namespace
}  // namespace netclone::core

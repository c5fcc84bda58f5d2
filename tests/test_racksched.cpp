#include "baselines/racksched_program.hpp"

#include <gtest/gtest.h>

#include "core/groups.hpp"
#include "core/netclone_program.hpp"
#include "test_util.hpp"

namespace netclone::baselines {
namespace {

using netclone::testing::make_request;
using netclone::testing::make_response;
using netclone::testing::run_ingress;

constexpr std::size_t kPortSrv0 = 10;
constexpr std::size_t kPortSrv1 = 11;
constexpr std::size_t kPortClient = 20;

class RackSchedTest : public ::testing::Test {
 protected:
  RackSchedTest() : program_(pipeline_, 16, /*rng_seed=*/7) {
    program_.add_server(ServerId{0}, host::server_ip(ServerId{0}), kPortSrv0);
    program_.add_server(ServerId{1}, host::server_ip(ServerId{1}), kPortSrv1);
    program_.add_route(host::client_ip(0), kPortClient);
  }

  void set_load(ServerId sid, std::uint16_t qlen) {
    wire::Packet req = make_request(0, 1, 0, 0);
    wire::Packet resp = make_response(sid, qlen, req);
    (void)run_ingress(program_, pipeline_, resp);
  }

  pisa::Pipeline pipeline_;
  RackSchedProgram program_;
};

TEST_F(RackSchedTest, ForwardsToSomeServerInitially) {
  wire::Packet pkt = make_request(0, 1, 0, 0);
  const auto md = run_ingress(program_, pipeline_, pkt);
  ASSERT_TRUE(md.egress_port.has_value());
  EXPECT_TRUE(*md.egress_port == kPortSrv0 || *md.egress_port == kPortSrv1);
  EXPECT_TRUE(pkt.ip.dst == host::server_ip(ServerId{0}) ||
              pkt.ip.dst == host::server_ip(ServerId{1}));
}

TEST_F(RackSchedTest, JoinsTheShorterQueue) {
  set_load(ServerId{0}, 9);
  set_load(ServerId{1}, 0);
  // With two servers, po2c always samples both; the min must win.
  for (int i = 0; i < 50; ++i) {
    wire::Packet pkt = make_request(0, 1, 0, 0);
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
    wire::Packet pkt = make_request(0, 1, 0, 0);
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
  int to_zero = 0;
  for (int i = 0; i < 200; ++i) {
    wire::Packet pkt = make_request(0, 1, 0, 0);
    const auto md = run_ingress(program_, pipeline_, pkt);
    to_zero += *md.egress_port == kPortSrv0 ? 1 : 0;
  }
  // Ties break toward the first sample, which is uniform: expect a split.
  EXPECT_GT(to_zero, 50);
  EXPECT_LT(to_zero, 150);
}

// The §3.7 NetClone x RackSched integration: NetClone's program with
// uncloned requests joining the shorter tracked queue.
class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : program_(pipeline_, make_config(), core::AggChainRole{},
                 core::UnclonedRoute::kShorterQueue) {
    program_.add_server(ServerId{0}, host::server_ip(ServerId{0}), kPortSrv0,
                        1);
    program_.add_server(ServerId{1}, host::server_ip(ServerId{1}), kPortSrv1,
                        2);
    program_.install_groups(core::build_group_pairs(2));
    program_.add_route(host::client_ip(0), kPortClient);
  }

  static core::NetCloneConfig make_config() {
    core::NetCloneConfig cfg;
    cfg.filter_slots = 64;
    return cfg;
  }

  void set_load(ServerId sid, std::uint16_t qlen) {
    wire::Packet req = make_request(0, 1, 0, 0);
    wire::Packet resp = make_response(sid, qlen, req);
    (void)run_ingress(program_, pipeline_, resp);
  }

  pisa::Pipeline pipeline_;
  core::NetCloneProgram program_;
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
}  // namespace netclone::baselines

#include "pisa/lpm_table.hpp"

#include <gtest/gtest.h>

#include "baselines/agg_router.hpp"
#include "test_util.hpp"

namespace netclone::pisa {
namespace {

wire::Ipv4Address ip(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d) {
  return wire::Ipv4Address::from_octets(a, b, c, d);
}

class LpmTest : public ::testing::Test {
 protected:
  Pipeline pipeline_;
  LpmTable<int> table_{pipeline_, "routes", 0, 128};

  std::optional<int> lookup(wire::Ipv4Address addr) {
    PipelinePass pass{pipeline_};
    return table_.lookup(pass, addr);
  }
};

TEST_F(LpmTest, LongestPrefixWins) {
  table_.insert(ip(10, 0, 0, 0), 8, 1);
  table_.insert(ip(10, 0, 1, 0), 24, 2);
  table_.insert(ip(10, 0, 1, 101), 32, 3);
  EXPECT_EQ(lookup(ip(10, 9, 9, 9)), 1);
  EXPECT_EQ(lookup(ip(10, 0, 1, 7)), 2);
  EXPECT_EQ(lookup(ip(10, 0, 1, 101)), 3);
}

TEST_F(LpmTest, DefaultRouteCatchesEverything) {
  table_.insert(ip(0, 0, 0, 0), 0, 99);
  EXPECT_EQ(lookup(ip(192, 168, 1, 1)), 99);
  table_.insert(ip(192, 168, 0, 0), 16, 5);
  EXPECT_EQ(lookup(ip(192, 168, 1, 1)), 5);
}

TEST_F(LpmTest, MissWithoutDefault) {
  table_.insert(ip(10, 0, 0, 0), 8, 1);
  EXPECT_EQ(lookup(ip(11, 0, 0, 1)), std::nullopt);
}

TEST_F(LpmTest, PrefixBitsBeyondLengthIgnored) {
  table_.insert(ip(10, 0, 1, 77), 24, 4);  // host bits set, /24 route
  EXPECT_EQ(lookup(ip(10, 0, 1, 3)), 4);
}

TEST_F(LpmTest, EraseRemovesRoute) {
  table_.insert(ip(10, 0, 0, 0), 8, 1);
  table_.erase(ip(10, 0, 0, 0), 8);
  EXPECT_EQ(lookup(ip(10, 1, 2, 3)), std::nullopt);
  EXPECT_EQ(table_.entry_count(), 0U);
}

TEST_F(LpmTest, BadLengthRejected) {
  EXPECT_THROW((void)table_.insert(ip(1, 2, 3, 4), 33, 0), CheckFailure);
}

TEST_F(LpmTest, SingleAccessPerPassEnforced) {
  table_.insert(ip(10, 0, 0, 0), 8, 1);
  PipelinePass pass{pipeline_};
  (void)table_.lookup(pass, ip(10, 0, 0, 1));
  EXPECT_THROW((void)table_.lookup(pass, ip(10, 0, 0, 2)), CheckFailure);
}

TEST(CounterArray, CountsPacketsAndBytes) {
  Pipeline pipeline;
  CounterArray counters{pipeline, "ctr", 0, 4};
  PipelinePass pass{pipeline};
  counters.count(pass, 1, 100);
  counters.count(pass, 1, 50);  // stateless: multiple per pass allowed
  counters.count(pass, 3, 7);
  EXPECT_EQ(counters.packets(1), 2U);
  EXPECT_EQ(counters.bytes(1), 150U);
  EXPECT_EQ(counters.packets(3), 1U);
  EXPECT_EQ(counters.packets(0), 0U);
}

TEST(CounterArray, SoftStateResets) {
  Pipeline pipeline;
  CounterArray counters{pipeline, "ctr", 0, 2};
  {
    PipelinePass pass{pipeline};
    counters.count(pass, 0, 10);
  }
  pipeline.reset_soft_state();
  EXPECT_EQ(counters.packets(0), 0U);
  EXPECT_EQ(counters.bytes(0), 0U);
}

TEST(CounterArray, OutOfRangeThrows) {
  Pipeline pipeline;
  CounterArray counters{pipeline, "ctr", 0, 2};
  PipelinePass pass{pipeline};
  EXPECT_THROW((void)counters.count(pass, 2, 1), CheckFailure);
}

}  // namespace
}  // namespace netclone::pisa

namespace netclone::baselines {
namespace {

using netclone::testing::make_request;
using netclone::testing::run_ingress;

TEST(AggRouter, RoutesBySubnetAndCounts) {
  pisa::Pipeline pipeline;
  AggRouterProgram router{pipeline, 4};
  // Rack 1 subnet via port 0, rack 2 via port 1, clients via port 2.
  router.add_prefix(wire::Ipv4Address::from_octets(10, 0, 1, 0), 24, 0);
  router.add_prefix(wire::Ipv4Address::from_octets(10, 0, 2, 0), 24, 1);
  router.add_prefix(wire::Ipv4Address::from_octets(10, 0, 0, 0), 24, 2);

  wire::Packet to_server = make_request(0, 1, 0, 0);
  to_server.ip.dst = host::server_ip(ServerId{3});  // 10.0.1.104
  const auto md = run_ingress(router, pipeline, to_server);
  EXPECT_EQ(md.egress_port, 0U);
  // The NetClone header passed through untouched: no req id assigned.
  EXPECT_EQ(to_server.nc().req_id, 0U);

  wire::Packet to_client = make_request(0, 2, 0, 0);
  to_client.ip.dst = host::client_ip(1);
  EXPECT_EQ(run_ingress(router, pipeline, to_client).egress_port, 2U);

  wire::Packet nowhere = make_request(0, 3, 0, 0);
  nowhere.ip.dst = wire::Ipv4Address::from_octets(172, 16, 0, 1);
  EXPECT_TRUE(run_ingress(router, pipeline, nowhere).drop);

  EXPECT_EQ(router.stats().routed, 2U);
  EXPECT_EQ(router.stats().no_route_drops, 1U);
  EXPECT_EQ(router.port_packets(0), 1U);
  EXPECT_EQ(router.port_packets(2), 1U);
}

}  // namespace
}  // namespace netclone::baselines

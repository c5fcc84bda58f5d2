// Multi-packet message support (§3.7): the cloned-request table, ordered
// filter tables, fragment reassembly at the server, end-to-end runs, and
// the harness check that rejects response fragment counts the filter
// would drop.
#include <gtest/gtest.h>

#include "core/netclone_program.hpp"
#include "harness/experiment.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "test_util.hpp"

namespace netclone::core {
namespace {

using netclone::testing::make_request;
using netclone::testing::make_response;
using netclone::testing::run_ingress;

NetCloneConfig mp_config() {
  NetCloneConfig cfg;
  cfg.id_mode = RequestIdMode::kClientTuple;
  cfg.enable_multipacket = true;
  cfg.num_filter_tables = 4;  // >= max response fragment count
  cfg.filter_slots = 256;
  cfg.cloned_req_slots = 128;
  return cfg;
}

class MultiPacketProgramTest : public ::testing::Test {
 protected:
  MultiPacketProgramTest() : program_(pipeline_, mp_config()) {
    program_.add_server(ServerId{0}, host::server_ip(ServerId{0}), 10, 1);
    program_.add_server(ServerId{1}, host::server_ip(ServerId{1}), 11, 2);
    program_.install_groups(build_group_pairs(2));
    program_.add_route(host::client_ip(0), 20);
  }

  static wire::Packet fragment(std::uint32_t seq, std::uint8_t idx,
                               std::uint8_t count) {
    wire::Packet pkt = make_request(0, seq, 0, 0);
    pkt.nc().frag_idx = idx;
    pkt.nc().frag_count = count;
    return pkt;
  }

  void make_busy(ServerId sid) {
    wire::Packet req = make_request(0, 999990, 0, 0);
    wire::Packet resp = make_response(sid, 5, req);
    (void)run_ingress(program_, pipeline_, resp);
  }

  pisa::Pipeline pipeline_;
  NetCloneProgram program_;
};

TEST_F(MultiPacketProgramTest, RequiresClientTupleIds) {
  NetCloneConfig bad = mp_config();
  bad.id_mode = RequestIdMode::kSwitchSequence;
  pisa::Pipeline pipeline;
  EXPECT_THROW((void)NetCloneProgram(pipeline, bad), CheckFailure);
}

TEST_F(MultiPacketProgramTest, ClientTupleIdsStableAndNonZero) {
  const std::uint32_t a = NetCloneProgram::client_tuple_id(1, 100);
  EXPECT_EQ(a, NetCloneProgram::client_tuple_id(1, 100));
  EXPECT_NE(a, NetCloneProgram::client_tuple_id(1, 101));
  EXPECT_NE(a, NetCloneProgram::client_tuple_id(2, 100));
  for (std::uint32_t s = 0; s < 1000; ++s) {
    EXPECT_NE(NetCloneProgram::client_tuple_id(0, s), 0U);
  }
}

TEST_F(MultiPacketProgramTest, FragmentsShareTheRequestId) {
  wire::Packet f0 = fragment(7, 0, 3);
  wire::Packet f1 = fragment(7, 1, 3);
  (void)run_ingress(program_, pipeline_, f0);
  (void)run_ingress(program_, pipeline_, f1);
  EXPECT_EQ(f0.nc().req_id, f1.nc().req_id);
  EXPECT_EQ(f0.nc().req_id, NetCloneProgram::client_tuple_id(0, 7));
}

TEST_F(MultiPacketProgramTest, FollowUpFragmentsCloneWithClonedRoot) {
  // Fragment 0 clones (both idle); fragments 1 and 2 must clone too even
  // though we make the tracked states busy in between.
  wire::Packet f0 = fragment(7, 0, 3);
  const auto md0 = run_ingress(program_, pipeline_, f0);
  ASSERT_TRUE(md0.multicast_group.has_value());

  make_busy(ServerId{0});
  make_busy(ServerId{1});

  wire::Packet f1 = fragment(7, 1, 3);
  const auto md1 = run_ingress(program_, pipeline_, f1);
  EXPECT_TRUE(md1.multicast_group.has_value());
  EXPECT_EQ(f1.nc().clo, wire::CloneStatus::kClonedOriginal);
  EXPECT_EQ(f1.nc().sid, 1);
  EXPECT_EQ(program_.stats().cloned_fragments, 1U);

  wire::Packet f2 = fragment(7, 2, 3);
  const auto md2 = run_ingress(program_, pipeline_, f2);
  EXPECT_TRUE(md2.multicast_group.has_value());
  // The last fragment clears the cloned-request slot for reuse.
  const std::uint32_t slot = NetCloneProgram::filter_hash(
      f0.nc().req_id, mp_config().cloned_req_slots);
  (void)slot;
  wire::Packet late = fragment(7, 1, 3);  // same id after completion
  const auto md_late = run_ingress(program_, pipeline_, late);
  EXPECT_FALSE(md_late.multicast_group.has_value());  // entry cleared
}

TEST_F(MultiPacketProgramTest, FollowUpsFollowUnclonedRoot) {
  make_busy(ServerId{1});
  wire::Packet f0 = fragment(9, 0, 2);
  const auto md0 = run_ingress(program_, pipeline_, f0);
  EXPECT_FALSE(md0.multicast_group.has_value());
  EXPECT_EQ(md0.egress_port, 10U);  // srv1 of group 0

  make_busy(ServerId{0});  // states now say busy either way
  wire::Packet f1 = fragment(9, 1, 2);
  const auto md1 = run_ingress(program_, pipeline_, f1);
  EXPECT_FALSE(md1.multicast_group.has_value());
  EXPECT_EQ(md1.egress_port, 10U);  // affinity: same first candidate
  EXPECT_EQ(program_.stats().cloned_fragments, 0U);
}

TEST_F(MultiPacketProgramTest, ResponseFragmentsFilterIndependently) {
  // A cloned request answered with 3-fragment responses from both
  // servers: each ordinal must store/drop in its own ordered table.
  wire::Packet req = fragment(11, 0, 1);
  req.nc().clo = wire::CloneStatus::kClonedOriginal;
  req.nc().req_id = NetCloneProgram::client_tuple_id(0, 11);

  for (std::uint8_t f = 0; f < 3; ++f) {
    wire::Packet fast = make_response(ServerId{0}, 0, req);
    fast.nc().frag_idx = f;
    fast.nc().frag_count = 3;
    EXPECT_FALSE(run_ingress(program_, pipeline_, fast).drop) << int{f};
  }
  for (std::uint8_t f = 0; f < 3; ++f) {
    wire::Packet slow = make_response(ServerId{1}, 0, req);
    slow.nc().clo = wire::CloneStatus::kClonedCopy;
    slow.nc().frag_idx = f;
    slow.nc().frag_count = 3;
    EXPECT_TRUE(run_ingress(program_, pipeline_, slow).drop) << int{f};
  }
  EXPECT_EQ(program_.stats().filtered_responses, 3U);
}

}  // namespace
}  // namespace netclone::core

namespace netclone::harness {
namespace {

ClusterConfig mp_cluster() {
  ClusterConfig cfg;
  cfg.scheme = Scheme::kNetClone;
  cfg.server_workers = {8, 8, 8, 8};
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.01, 15});
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(8);
  cfg.netclone.id_mode = core::RequestIdMode::kClientTuple;
  cfg.netclone.enable_multipacket = true;
  cfg.netclone.num_filter_tables = 4;
  cfg.client_template.request_fragments = 3;
  cfg.server_template.response_fragments = 2;
  const double capacity =
      cluster_capacity_rps(cfg.server_workers, 25.0 * 1.14);
  cfg.offered_rps = 0.25 * capacity;
  return cfg;
}

TEST(MultiPacketEndToEnd, AllRequestsCompleteWithFilteredDuplicates) {
  Experiment experiment{mp_cluster()};
  const ExperimentResult result = experiment.run();
  EXPECT_GT(result.requests_sent, 500U);

  std::uint64_t completed = 0;
  std::uint64_t redundant = 0;
  for (const host::Client* client : experiment.clients()) {
    completed += client->stats().completed;
    redundant += client->stats().redundant_responses;
  }
  EXPECT_EQ(completed, result.requests_sent);
  // Filtering works per fragment: duplicates stay away from the client
  // (collision leaks aside — the test uses default-size filter tables).
  EXPECT_LT(redundant, result.requests_sent / 50 + 2);

  // Servers actually reassembled 3-fragment requests.
  std::uint64_t reassembled = 0;
  for (const host::Server* server : experiment.servers()) {
    reassembled += server->stats().reassembled_requests;
  }
  EXPECT_GT(reassembled, 0U);

  const auto& ps = experiment.netclone_program()->stats();
  EXPECT_GT(ps.continuation_fragments, 0U);
  EXPECT_GT(ps.cloned_fragments, 0U);
}

TEST(MultiPacketEndToEnd, SingleFragmentConfigIsUnchanged) {
  ClusterConfig cfg = mp_cluster();
  cfg.client_template.request_fragments = 1;
  cfg.server_template.response_fragments = 1;
  Experiment experiment{cfg};
  const ExperimentResult result = experiment.run();
  EXPECT_GT(result.completed, 0U);
  EXPECT_EQ(experiment.netclone_program()->stats().continuation_fragments,
            0U);
}

// Each rejected configuration would drop a response's later fragment as
// the slower duplicate (see Testbed::check_response_fragments).
TEST(MultiPacketEndToEnd, RejectsResponseFragmentsTheFilterWouldDrop) {
  ClusterConfig cfg = mp_cluster();
  cfg.netclone.num_filter_tables = 2;
  cfg.server_template.response_fragments = 3;
  EXPECT_THROW(Experiment{cfg}, CheckFailure);

  cfg = mp_cluster();  // 4 tables
  cfg.server_template.response_fragments = 5;
  EXPECT_THROW(Experiment{cfg}, CheckFailure);

  cfg = mp_cluster();
  cfg.netclone.enable_multipacket = false;
  cfg.client_template.request_fragments = 1;
  cfg.server_template.response_fragments = 2;
  EXPECT_THROW(Experiment{cfg}, CheckFailure);

  // The RackSched integration has no multi-packet tables, and a LAEDGE
  // coordinator relays one response per request.
  cfg.scheme = Scheme::kNetCloneRackSched;
  EXPECT_THROW(Experiment{cfg}, CheckFailure);
  cfg.scheme = Scheme::kLaedge;
  EXPECT_THROW(Experiment{cfg}, CheckFailure);
}

TEST(MultiPacketEndToEnd, AcceptsUnfilteredAndSingleFragmentResponses) {
  ClusterConfig cfg = mp_cluster();
  cfg.netclone.enable_multipacket = false;
  cfg.client_template.request_fragments = 1;
  cfg.server_template.response_fragments = 2;
  cfg.scheme = Scheme::kNetCloneNoFilter;
  Experiment unfiltered{cfg};
  const ExperimentResult result = unfiltered.run();
  std::uint64_t completed = 0;
  for (const host::Client* client : unfiltered.clients()) {
    completed += client->stats().completed;
  }
  EXPECT_GT(result.requests_sent, 500U);
  EXPECT_EQ(completed, result.requests_sent);

  cfg.scheme = Scheme::kNetClone;
  cfg.netclone.enable_filtering = false;
  EXPECT_NO_THROW(Experiment{cfg});
  cfg.netclone.enable_filtering = true;
  cfg.server_template.response_fragments = 1;
  EXPECT_NO_THROW(Experiment{cfg});
}

}  // namespace
}  // namespace netclone::harness

// Deep edge cases: collision behavior of the cloned-request table,
// stranded partial reassemblies, switch failure racing recirculation,
// and whole-cluster determinism for every scheme.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "core/netclone_program.hpp"
#include "harness/experiment.hpp"
#include "host/server.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "phys/topology.hpp"
#include "pisa/switch_device.hpp"
#include "test_util.hpp"

namespace netclone {
namespace {

using core::NetCloneConfig;
using core::NetCloneProgram;
using core::RequestIdMode;
using netclone::testing::CaptureNode;
using netclone::testing::colliding_seqs;
using netclone::testing::make_request;
using netclone::testing::make_response;
using netclone::testing::run_ingress;

NetCloneConfig tiny_mp_config() {
  NetCloneConfig cfg;
  cfg.id_mode = RequestIdMode::kClientTuple;
  cfg.enable_multipacket = true;
  cfg.num_filter_tables = 4;
  cfg.filter_slots = 64;
  return cfg;
}

TEST(ClonedReqTableCollision, DegradesToPartialCloningNotCorruption) {
  // Two concurrent cloned multi-packet requests share one slot. The
  // later one overwrites; the earlier one's remaining fragments stop
  // cloning (partial cloning — §3.7 explicitly tolerates this), but
  // nothing is misrouted and affinity is preserved.
  pisa::Pipeline pipeline;
  NetCloneProgram program{pipeline, tiny_mp_config()};
  program.add_server(ServerId{0}, host::server_ip(ServerId{0}), 10, 1);
  program.add_server(ServerId{1}, host::server_ip(ServerId{1}), 11, 2);
  program.install_groups(core::build_group_pairs(2));

  auto fragment = [](std::uint32_t seq, std::uint8_t idx,
                     std::uint8_t count) {
    wire::Packet pkt = make_request(0, seq, 0, 0);
    pkt.nc().frag_idx = idx;
    pkt.nc().frag_count = count;
    return pkt;
  };

  const std::vector<std::uint32_t> seqs = colliding_seqs(0, 1, 2);
  const std::uint32_t a = seqs[0];
  const std::uint32_t b = seqs[1];
  wire::Packet a0 = fragment(a, 0, 3);
  EXPECT_TRUE(run_ingress(program, pipeline, a0).multicast_group);

  wire::Packet b0 = fragment(b, 0, 3);  // overwrites the slot
  EXPECT_TRUE(run_ingress(program, pipeline, b0).multicast_group);

  // A's follow-up no longer matches: forwarded (not cloned) to srv1 —
  // partial cloning, correct destination.
  wire::Packet a1 = fragment(a, 1, 3);
  const auto md_a1 = run_ingress(program, pipeline, a1);
  EXPECT_FALSE(md_a1.multicast_group.has_value());
  EXPECT_EQ(md_a1.egress_port, 10U);
  EXPECT_EQ(a1.nc().clo, wire::CloneStatus::kNotCloned);

  // B's follow-ups still clone; the last one clears the slot.
  wire::Packet b1 = fragment(b, 1, 3);
  EXPECT_TRUE(run_ingress(program, pipeline, b1).multicast_group);
  wire::Packet b2 = fragment(b, 2, 3);
  EXPECT_TRUE(run_ingress(program, pipeline, b2).multicast_group);
  wire::Packet b_again = fragment(b, 1, 3);
  EXPECT_FALSE(
      run_ingress(program, pipeline, b_again).multicast_group.has_value());
}

TEST(StrandedPartials, ExpiredByTtlSweep) {
  sim::Simulator sim;
  phys::Topology topo{sim};
  host::ServerParams sp;
  sp.sid = ServerId{0};
  sp.workers = 4;
  auto& server = topo.add_node<host::Server>(
      sim, sp,
      std::make_shared<host::SyntheticService>(host::JitterModel{0.0, 1.0}),
      Rng{1});
  auto& wire_end = topo.add_node<CaptureNode>("wire");
  topo.connect(server, wire_end);

  // A lone first fragment of a 2-fragment request: its partner never
  // arrives (e.g. the clone-half was dropped at admission).
  wire::Packet orphan = make_request(0, 1, 0, 0, 1000);
  orphan.nc().frag_idx = 0;
  orphan.nc().frag_count = 2;
  wire_end.transmit(0, orphan.serialize());
  sim.run();
  EXPECT_EQ(server.stats().reassembled_requests, 0U);

  // Drive > 4096 dispatches (the lazy-sweep cadence) past the server's
  // 50 ms TTL, paced so the link's egress queue never overflows.
  const SimTime base = sim.now() + SimTime::milliseconds(50);
  for (std::uint32_t i = 2; i < 4200; ++i) {
    sim.schedule_at(base + SimTime::nanoseconds(500 * i),
                    [&wire_end, i] {
                      wire_end.transmit(
                          0, make_request(0, i, 0, 0, 0).serialize());
                    });
  }
  sim.run();
  EXPECT_GE(server.stats().expired_partials, 1U);
  EXPECT_EQ(server.stats().completed, 4198U);  // the orphan never ran
}

TEST(FailureRace, RecirculatedCloneDiesWithTheSwitch) {
  // Fail the switch in the recirculation gap: the loopback copy must be
  // dropped (dropped_while_failed), never half-processed.
  sim::Simulator sim;
  phys::Topology topo{sim};
  auto& tor = topo.add_node<pisa::SwitchDevice>(sim, "tor");
  const std::size_t recirc = tor.add_internal_port();
  tor.set_loopback_port(recirc);
  auto program = std::make_shared<NetCloneProgram>(tor.pipeline(),
                                                   NetCloneConfig{});
  tor.load_program(program);
  auto& a = topo.add_node<CaptureNode>("a");
  auto& b = topo.add_node<CaptureNode>("b");
  auto& client = topo.add_node<CaptureNode>("client");
  const auto pa = topo.connect(a, tor);
  const auto pb = topo.connect(b, tor);
  const auto pc = topo.connect(client, tor);
  program->add_server(ServerId{0}, host::server_ip(ServerId{0}),
                      pa.port_on_b, 1);
  program->add_server(ServerId{1}, host::server_ip(ServerId{1}),
                      pb.port_on_b, 2);
  tor.configure_multicast_group(1, {pa.port_on_b, recirc});
  tor.configure_multicast_group(2, {pb.port_on_b, recirc});
  program->install_groups(core::build_group_pairs(2));
  program->add_route(host::client_ip(0), pc.port_on_b);

  client.transmit(0, netclone::testing::make_request(0, 1, 0, 0)
                         .serialize());
  // The frame reaches the switch at ~860 ns; the original leaves after
  // the 400 ns pipeline; the clone re-enters at +450 ns more. Fail right
  // inside that window.
  sim.schedule_at(SimTime::nanoseconds(1450), [&] { tor.fail(); });
  sim.run();
  EXPECT_EQ(program->stats().cloned_requests, 1U);
  EXPECT_EQ(program->stats().recirculated_clones, 0U);  // died in the loop
  EXPECT_GE(tor.stats().dropped_while_failed, 1U);
  EXPECT_TRUE(b.received.empty());  // the clone's target never saw it
}

class DeterminismSweep
    : public ::testing::TestWithParam<harness::Scheme> {};

TEST_P(DeterminismSweep, IdenticalSeedsGiveIdenticalRuns) {
  harness::ClusterConfig cfg;
  cfg.scheme = GetParam();
  cfg.server_workers = {4, 4, 4};
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service = std::make_shared<host::SyntheticService>(
      host::JitterModel{0.01, 15.0, 0.08});
  cfg.warmup = SimTime::milliseconds(1);
  cfg.measure = SimTime::milliseconds(5);
  cfg.offered_rps = GetParam() == harness::Scheme::kLaedge
                        ? 50000.0
                        : 0.4 * harness::cluster_capacity_rps(
                                    cfg.server_workers, 25.0 * 1.14);
  harness::Experiment e1{cfg};
  harness::Experiment e2{cfg};
  const auto r1 = e1.run();
  const auto r2 = e2.run();
  EXPECT_EQ(r1.requests_sent, r2.requests_sent);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.p99, r2.p99);
  EXPECT_EQ(r1.p999, r2.p999);
  EXPECT_EQ(r1.cloned_requests, r2.cloned_requests);
  EXPECT_EQ(r1.filtered_responses, r2.filtered_responses);
  EXPECT_EQ(r1.redundant_responses, r2.redundant_responses);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DeterminismSweep,
    ::testing::Values(harness::Scheme::kBaseline, harness::Scheme::kCClone,
                      harness::Scheme::kLaedge, harness::Scheme::kNetClone,
                      harness::Scheme::kNetCloneNoFilter,
                      harness::Scheme::kRackSched,
                      harness::Scheme::kNetCloneRackSched),
    [](const ::testing::TestParamInfo<harness::Scheme>& param_info) {
      std::string name = harness::scheme_name(param_info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace netclone

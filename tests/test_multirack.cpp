// Multi-rack deployment (§3.7): two ToR switches both running NetClone.
// The client-side ToR stamps SWITCH_ID and performs cloning/filtering; the
// server-side ToR must recognize the foreign stamp and only route.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "baselines/router.hpp"
#include "core/netclone_program.hpp"
#include "host/client.hpp"
#include "host/server.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"
#include "phys/topology.hpp"
#include "pisa/switch_device.hpp"

namespace netclone {
namespace {

TEST(MultiRack, CloningHappensOnlyAtClientSideTor) {
  sim::Simulator sim;
  phys::Topology topo{sim};

  auto& tor1 = topo.add_node<pisa::SwitchDevice>(sim, "tor-client");
  auto& tor2 = topo.add_node<pisa::SwitchDevice>(sim, "tor-server");

  const std::size_t recirc1 = tor1.add_internal_port();
  tor1.set_loopback_port(recirc1);
  const std::size_t recirc2 = tor2.add_internal_port();
  tor2.set_loopback_port(recirc2);

  core::NetCloneConfig cfg1;
  cfg1.switch_id = 1;
  auto prog1 = std::make_shared<core::NetCloneProgram>(tor1.pipeline(),
                                                       cfg1);
  tor1.load_program(prog1);

  core::NetCloneConfig cfg2;
  cfg2.switch_id = 2;
  auto prog2 = std::make_shared<core::NetCloneProgram>(tor2.pipeline(),
                                                       cfg2);
  tor2.load_program(prog2);

  // Inter-switch trunk.
  const auto trunk = topo.connect(tor1, tor2);

  // Two servers under tor2.
  auto service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.0, 15.0});
  std::vector<host::Server*> servers;
  for (std::uint8_t i = 0; i < 2; ++i) {
    host::ServerParams sp;
    sp.sid = ServerId{i};
    sp.workers = 4;
    auto& server = topo.add_node<host::Server>(sim, sp, service, Rng{i});
    const auto ports = topo.connect(server, tor2);
    servers.push_back(&server);
    const auto ip = host::server_ip(ServerId{i});
    // tor1 clones toward the trunk: both the original and (after
    // recirculation) the copy leave through the trunk port.
    prog1->add_server(ServerId{i}, ip, trunk.port_on_a,
                      static_cast<std::uint16_t>(i + 1));
    tor1.configure_multicast_group(static_cast<std::uint16_t>(i + 1),
                                   {trunk.port_on_a, recirc1});
    // tor2 only routes; NetClone logic is skipped for foreign packets.
    prog2->add_route(ip, ports.port_on_b);
  }
  prog1->install_groups(core::build_group_pairs(2));

  // One client under tor1.
  host::ClientParams cp;
  cp.client_id = 0;
  cp.mode = host::SendMode::kViaSwitch;
  cp.target = host::service_vip();
  cp.rate_rps = 50000.0;
  cp.num_groups = 2;
  cp.num_filter_tables = 2;
  cp.stop_at = SimTime::milliseconds(2);
  auto& client = topo.add_node<host::Client>(
      sim, cp, std::make_shared<host::ExponentialWorkload>(25.0), Rng{9});
  const auto client_ports = topo.connect(client, tor1);
  prog1->add_route(host::client_ip(0), client_ports.port_on_b);
  prog2->add_route(host::client_ip(0), trunk.port_on_b);

  client.start();
  sim.run();

  // End-to-end completion across two hops.
  EXPECT_GT(client.stats().requests_sent, 50U);
  EXPECT_EQ(client.stats().completed, client.stats().requests_sent);

  // Cloning and filtering happened at tor1 only.
  EXPECT_GT(prog1->stats().cloned_requests, 0U);
  EXPECT_GT(prog1->stats().filtered_responses, 0U);
  EXPECT_EQ(prog2->stats().cloned_requests, 0U);
  EXPECT_EQ(prog2->stats().responses, 0U);
  // tor2 classified the stamped traffic as foreign.
  EXPECT_GT(prog2->stats().foreign_packets, 0U);
  EXPECT_EQ(tor2.stats().recirculated, 0U);

  // Filtering kept duplicates away from the client.
  EXPECT_EQ(client.stats().redundant_responses, 0U);

  // Both servers did real work.
  for (const host::Server* server : servers) {
    EXPECT_GT(server->stats().completed, 0U);
  }
}

TEST(MultiRack, ThroughAnLpmAggregationLayer) {
  // Client rack -- aggregation router -- server rack. The aggregation
  // switch is NetClone-oblivious: plain LPM over the two /24 subnets.
  sim::Simulator sim;
  phys::Topology topo{sim};

  auto& tor1 = topo.add_node<pisa::SwitchDevice>(sim, "tor-client");
  auto& agg = topo.add_node<pisa::SwitchDevice>(sim, "agg");
  auto& tor2 = topo.add_node<pisa::SwitchDevice>(sim, "tor-server");

  const std::size_t recirc1 = tor1.add_internal_port();
  tor1.set_loopback_port(recirc1);
  const std::size_t recirc2 = tor2.add_internal_port();
  tor2.set_loopback_port(recirc2);

  core::NetCloneConfig cfg1;
  cfg1.switch_id = 1;
  auto prog1 =
      std::make_shared<core::NetCloneProgram>(tor1.pipeline(), cfg1);
  tor1.load_program(prog1);
  core::NetCloneConfig cfg2;
  cfg2.switch_id = 2;
  auto prog2 =
      std::make_shared<core::NetCloneProgram>(tor2.pipeline(), cfg2);
  tor2.load_program(prog2);

  const auto tor1_agg = topo.connect(tor1, agg);
  const auto tor2_agg = topo.connect(tor2, agg);

  auto agg_prog =
      std::make_shared<baselines::RouterProgram>(agg.pipeline(), 8);
  agg.load_program(agg_prog);
  // Server subnet behind tor2, client subnet behind tor1.
  agg_prog->add_prefix(wire::Ipv4Address::from_octets(10, 0, 1, 0), 24,
                       tor2_agg.port_on_b);
  agg_prog->add_prefix(wire::Ipv4Address::from_octets(10, 0, 0, 0), 24,
                       tor1_agg.port_on_b);

  auto service =
      std::make_shared<host::SyntheticService>(host::JitterModel{0.0, 15});
  std::vector<host::Server*> servers;
  for (std::uint8_t i = 0; i < 2; ++i) {
    host::ServerParams sp;
    sp.sid = ServerId{i};
    sp.workers = 4;
    auto& server = topo.add_node<host::Server>(sim, sp, service, Rng{i});
    const auto ports = topo.connect(server, tor2);
    servers.push_back(&server);
    const auto ip = host::server_ip(ServerId{i});
    prog1->add_server(ServerId{i}, ip, tor1_agg.port_on_a,
                      static_cast<std::uint16_t>(i + 1));
    tor1.configure_multicast_group(static_cast<std::uint16_t>(i + 1),
                                   {tor1_agg.port_on_a, recirc1});
    prog2->add_route(ip, ports.port_on_b);
  }
  prog1->install_groups(core::build_group_pairs(2));

  host::ClientParams cp;
  cp.client_id = 0;
  cp.mode = host::SendMode::kViaSwitch;
  cp.target = host::service_vip();
  cp.rate_rps = 50000.0;
  cp.num_groups = 2;
  cp.num_filter_tables = 2;
  cp.stop_at = SimTime::milliseconds(2);
  auto& client = topo.add_node<host::Client>(
      sim, cp, std::make_shared<host::ExponentialWorkload>(25.0), Rng{9});
  const auto client_ports = topo.connect(client, tor1);
  prog1->add_route(host::client_ip(0), client_ports.port_on_b);
  prog2->add_route(host::client_ip(0), tor2_agg.port_on_a);

  client.start();
  sim.run();

  EXPECT_GT(client.stats().requests_sent, 50U);
  EXPECT_EQ(client.stats().completed, client.stats().requests_sent);
  EXPECT_GT(prog1->stats().cloned_requests, 0U);
  EXPECT_GT(prog1->stats().filtered_responses, 0U);
  EXPECT_EQ(prog2->stats().cloned_requests, 0U);
  EXPECT_EQ(client.stats().redundant_responses, 0U);
  // The aggregation layer carried every packet in both directions and
  // never touched the NetClone header.
  EXPECT_GT(agg_prog->stats().routed, 2 * client.stats().requests_sent);
  EXPECT_EQ(agg_prog->stats().no_route_drops, 0U);
  EXPECT_GT(tor2_agg.b_to_a->stats().tx_frames, 0U);
  EXPECT_GT(tor1_agg.b_to_a->stats().tx_frames, 0U);
}

}  // namespace
}  // namespace netclone

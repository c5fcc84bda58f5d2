#include "harness/multirack.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace netclone::harness {

namespace {

/// Shared identity of the replicated aggregation tier: every replica
/// stamps the same SWITCH_ID so rack ToRs treat tier traffic as foreign,
/// and chain peers recognize relayed responses as their own to process.
constexpr std::uint8_t kAggTierSwitchId = 200;

}  // namespace

MultiRackExperiment::MultiRackExperiment(MultiRackConfig config)
    : Testbed(config, Scheme::kNetClone), config_(std::move(config)) {
  NETCLONE_CHECK(config_.server_racks >= 1, "need at least one server rack");
  NETCLONE_CHECK(config_.server_racks * config_.servers_per_rack >= 2,
                 "NetClone needs at least two servers");
  NETCLONE_CHECK(config_.num_aggs >= 1, "need at least one agg switch");
  // The oblivious pod filters responses at the client ToR; the replicated
  // pod's chain replicas filter without multi-packet tables.
  check_response_fragments(config_.server_template.response_fragments,
                           config_.agg_mode == AggMode::kOblivious &&
                               config_.netclone.enable_multipacket,
                           config_.netclone.num_filter_tables);
  build();
}

MultiRackExperiment::~MultiRackExperiment() = default;

const core::NetCloneProgram& MultiRackExperiment::client_tor_program() const {
  NETCLONE_CHECK(client_tor_program_ != nullptr,
                 "the client ToR runs NetClone in kOblivious mode only");
  return *client_tor_program_;
}

const baselines::RouterProgram& MultiRackExperiment::agg_program(
    std::size_t agg) const {
  NETCLONE_CHECK(agg < agg_router_programs_.size(),
                 "agg routers exist in kOblivious mode only");
  return *agg_router_programs_[agg];
}

const core::NetCloneProgram& MultiRackExperiment::agg_netclone_program(
    std::size_t agg) const {
  NETCLONE_CHECK(agg < agg_netclone_programs_.size(),
                 "chain replicas exist in kReplicated mode only");
  return *agg_netclone_programs_[agg];
}

phys::DuplexPorts MultiRackExperiment::connect_nodes(phys::Node& a,
                                                     phys::Node& b,
                                                     phys::LinkParams params) {
  // Deterministic per-link delay skew: cable-length variation of up to
  // 96 ns, fixed by the link's build order. Without it the pod is
  // perfectly symmetric, and equivalent racks deliver frames to the
  // aggregation tier at the same instant, leaving their order to
  // scheduling tie-breaks alone. The skew is part of the pod model: every
  // pinned multi-rack result (pod_replicated, the multirack digests)
  // depends on it.
  const std::size_t duplex_index = topology().links().size() / 2;
  params.delay +=
      SimTime::nanoseconds(static_cast<std::int64_t>((7 * duplex_index) % 97));
  return topology().connect(a, b, params);
}

void MultiRackExperiment::build() {
  const std::size_t num_servers =
      config_.server_racks * config_.servers_per_rack;
  NETCLONE_CHECK(num_servers < 150, "server count exceeds the address plan");
  NETCLONE_CHECK(num_servers * (num_servers - 1) <= 65535,
                 "group id space exceeded: too many servers");

  sim::Simulator& sim = simulator();

  // Tables must hold the whole pod.
  core::NetCloneConfig nc{config_.netclone};
  nc.max_servers = std::max(nc.max_servers, num_servers);

  const bool replicated = config_.agg_mode == AggMode::kReplicated;

  // -- aggregation tier ---------------------------------------------------
  std::vector<std::size_t> agg_recircs;
  for (std::size_t a = 0; a < config_.num_aggs; ++a) {
    auto& agg =
        topology().add_node<pisa::SwitchDevice>(sim, indexed_name("agg", a));
    if (replicated) {
      // The chain replicas clone, so they need the loopback port the
      // multicast groups reference.
      const std::size_t recirc = agg.add_internal_port();
      agg.set_loopback_port(recirc);
      agg_recircs.push_back(recirc);
    }
    aggs_.push_back(&agg);
    record_switch(indexed_name("agg", a), agg);
  }

  // -- client ToR ---------------------------------------------------------
  client_tor_ = &topology().add_node<pisa::SwitchDevice>(sim, "tor1");
  record_switch("tor1", *client_tor_);
  if (!replicated) {
    const std::size_t client_recirc = client_tor_->add_internal_port();
    client_tor_->set_loopback_port(client_recirc);
    core::NetCloneConfig client_cfg = nc;
    client_cfg.switch_id = 1;
    client_tor_program_ = std::make_shared<core::NetCloneProgram>(
        client_tor_->pipeline(), client_cfg);
    client_tor_->load_program(client_tor_program_);
    record_netclone("tor1", *client_tor_program_);
    controllers_.emplace_back(*client_tor_program_, *client_tor_,
                              client_recirc);
  } else {
    client_router_program_ = std::make_shared<baselines::RouterProgram>(
        client_tor_->pipeline(),
        /*num_ports=*/config_.num_aggs + config_.num_clients,
        /*route_capacity=*/1 + config_.num_clients + num_servers);
    client_tor_->load_program(client_router_program_);
  }

  // Client ToR uplinks, one per agg.
  std::vector<phys::DuplexPorts> client_trunks;
  for (std::size_t a = 0; a < config_.num_aggs; ++a) {
    const phys::DuplexPorts trunk =
        connect_nodes(*client_tor_, *aggs_[a], kTrunkLink);
    record_link("tor1", indexed_name("agg", a), trunk);
    client_trunks.push_back(trunk);
  }
  if (replicated) {
    // Requests to the service VIP spray over the chain replicas.
    std::vector<std::size_t> uplinks;
    for (const phys::DuplexPorts& trunk : client_trunks) {
      uplinks.push_back(trunk.port_on_a);
    }
    spray_uplink_ports_ = uplinks;
    client_router_program_->add_ecmp_prefix(host::service_vip(), 32,
                                            uplinks);
  }

  // Chain links between the replicas (dedicated FIFO hops the head->tail
  // response stream rides on). A full mesh, not just consecutive hops:
  // fail-over may splice any replica next to any other, and a rejoiner
  // is appended behind whichever replica is the tail by then. The lower-
  // indexed pairs come first, so the 2-agg pod's link order (and its
  // pinned digests) is unchanged.
  chain_ports_.assign(config_.num_aggs,
                      std::vector<std::optional<std::size_t>>(
                          config_.num_aggs));
  if (replicated) {
    for (std::size_t i = 0; i < config_.num_aggs; ++i) {
      for (std::size_t j = i + 1; j < config_.num_aggs; ++j) {
        const phys::DuplexPorts hop =
            connect_nodes(*aggs_[i], *aggs_[j], kTrunkLink);
        record_link(indexed_name("agg", i), indexed_name("agg", j), hop);
        chain_ports_[i][j] = hop.port_on_a;
        chain_ports_[j][i] = hop.port_on_b;
      }
    }
  }

  // Load the agg programs now that their chain ports are known; each
  // replica's controller wires servers and routes as endpoints are added
  // below.
  if (replicated) {
    core::NetCloneConfig tier_cfg = nc;
    tier_cfg.switch_id = kAggTierSwitchId;
    // Whichever replica ECMP picks must derive the same request id, and
    // the tier clones single-packet requests only.
    tier_cfg.id_mode = core::RequestIdMode::kClientTuple;
    tier_cfg.enable_multipacket = false;
    sync_hub_ = std::make_shared<core::AggChainSyncHub>();
    for (std::size_t a = 0; a < config_.num_aggs; ++a) {
      core::AggChainRole role;
      role.replica_index = a;
      role.chain_length = config_.num_aggs;
      if (a + 1 < config_.num_aggs) {
        role.chain_next_port = chain_ports_[a][a + 1];
      }
      auto program = std::make_shared<core::NetCloneProgram>(
          aggs_[a]->pipeline(), tier_cfg, role);
      program->set_sync_hub(sync_hub_);
      aggs_[a]->load_program(program);
      record_netclone(indexed_name("agg", a), *program);
      controllers_.emplace_back(*program, *aggs_[a], agg_recircs[a]);
      agg_netclone_programs_.push_back(std::move(program));
    }
  } else {
    for (std::size_t a = 0; a < config_.num_aggs; ++a) {
      auto program = std::make_shared<baselines::RouterProgram>(
          aggs_[a]->pipeline(), /*num_ports=*/1 + config_.server_racks,
          /*route_capacity=*/num_servers + 1);
      aggs_[a]->load_program(program);
      // Client subnet lives behind ToR#1.
      program->add_prefix(wire::Ipv4Address::from_octets(10, 0, 0, 0), 24,
                          client_trunks[a].port_on_b);
      agg_router_programs_.push_back(std::move(program));
    }
  }

  // -- server racks -------------------------------------------------------
  // rack_trunks[rack][agg] — each rack ToR uplinks to every agg.
  std::vector<std::vector<phys::DuplexPorts>> rack_trunks;
  std::uint8_t sid = 0;
  for (std::size_t rack = 0; rack < config_.server_racks; ++rack) {
    const std::string tor_name = indexed_name("tor", rack + 2);
    auto& tor = topology().add_node<pisa::SwitchDevice>(sim, tor_name);
    const std::size_t tor_recirc = tor.add_internal_port();
    tor.set_loopback_port(tor_recirc);
    core::NetCloneConfig rack_cfg = nc;
    rack_cfg.switch_id = static_cast<std::uint8_t>(rack + 2);
    auto program =
        std::make_shared<core::NetCloneProgram>(tor.pipeline(), rack_cfg);
    tor.load_program(program);
    server_tor_programs_.push_back(program);
    record_switch(tor_name, tor);
    record_netclone(tor_name, *program);

    std::vector<phys::DuplexPorts> trunks;
    for (std::size_t a = 0; a < config_.num_aggs; ++a) {
      const phys::DuplexPorts trunk =
          connect_nodes(tor, *aggs_[a], kTrunkLink);
      record_link(tor_name, indexed_name("agg", a), trunk);
      trunks.push_back(trunk);
    }
    rack_trunks.push_back(trunks);
    std::vector<std::size_t> uplink_ports;
    for (const phys::DuplexPorts& trunk : trunks) {
      uplink_ports.push_back(trunk.port_on_a);
    }
    rack_uplink_ports_.push_back(std::move(uplink_ports));

    for (std::size_t i = 0; i < config_.servers_per_rack; ++i, ++sid) {
      auto& server = topology().add_node<host::Server>(
          sim,
          host::ServerParams{config_.server_template, ServerId{sid},
                             config_.workers},
          config_.service, root_rng().fork());
      const phys::DuplexPorts ports =
          connect_nodes(server, tor, kHostLink);
      record_link(indexed_name("s", sid), tor_name, ports);
      record_server(server);
      const wire::Ipv4Address ip = host::server_ip(ServerId{sid});
      // Rack ToR routes the server's address locally (foreign-stamped
      // packets take exactly this FwdT path).
      program->add_route(ip, ports.port_on_b);

      if (replicated) {
        for (std::size_t a = 0; a < config_.num_aggs; ++a) {
          // Clone at the agg, toward the trunk to the server's rack.
          controllers_[a].add_server(ServerId{sid}, ip, trunks[a].port_on_b);
        }
        // Direct sends (cancels) ride plain routes through one agg.
        client_router_program_->add_prefix(
            ip, 32, client_trunks[sid % config_.num_aggs].port_on_a);
      } else {
        // Clone at the client ToR, toward the trunk serving this sid.
        const std::size_t via = sid % config_.num_aggs;
        controllers_[0].add_server(ServerId{sid}, ip,
                                   client_trunks[via].port_on_a);
        for (std::size_t a = 0; a < config_.num_aggs; ++a) {
          agg_router_programs_[a]->add_prefix(ip, 32,
                                              trunks[a].port_on_b);
        }
      }
    }
  }

  // -- clients ------------------------------------------------------------
  for (std::size_t c = 0; c < config_.num_clients; ++c) {
    host::ClientParams cp = client_params(config_, c);
    cp.mode = host::SendMode::kViaSwitch;
    cp.target = host::service_vip();
    cp.num_groups = controllers_.front().group_count();
    auto& client = topology().add_node<host::Client>(
        sim, cp, config_.factory, root_rng().fork());
    const phys::DuplexPorts ports =
        connect_nodes(client, *client_tor_, kHostLink);
    record_link(indexed_name("c", c), "tor1", ports);
    const wire::Ipv4Address ip = host::client_ip(cp.client_id);
    client_ips_.push_back(ip);
    record_client(client);

    if (replicated) {
      client_router_program_->add_prefix(ip, 32, ports.port_on_b);
      for (std::size_t a = 0; a < config_.num_aggs; ++a) {
        // The tail forwards responses to the client through its own
        // downlink; upstream replicas never use the route but keep it so
        // foreign/cancel traffic cannot strand.
        controllers_[a].add_route(ip, client_trunks[a].port_on_b);
      }
      // Responses converge on the chain HEAD.
      for (std::size_t rack = 0; rack < config_.server_racks; ++rack) {
        server_tor_programs_[rack]->add_route(
            ip, rack_trunks[rack][0].port_on_a);
      }
    } else {
      controllers_[0].add_route(ip, ports.port_on_b);
      for (std::size_t rack = 0; rack < config_.server_racks; ++rack) {
        server_tor_programs_[rack]->add_route(
            ip, rack_trunks[rack][c % config_.num_aggs].port_on_a);
      }
    }
  }

  // -- fail-over controller + fault plan ----------------------------------
  if (replicated) {
    std::vector<ChainReplica> replicas;
    for (std::size_t a = 0; a < config_.num_aggs; ++a) {
      replicas.push_back(
          ChainReplica{aggs_[a], agg_netclone_programs_[a].get()});
    }
    chain_controller_ = std::make_unique<ChainController>(
        std::move(replicas), chain_ports_, sync_hub_,
        [this](const std::vector<std::size_t>& members) {
          // ECMP spray set = live chain members, ascending; the LPM
          // insert overwrites the previous next-hop set in place.
          std::vector<std::size_t> ports;
          for (const std::size_t a : members) {
            ports.push_back(spray_uplink_ports_[a]);
          }
          client_router_program_->add_ecmp_prefix(host::service_vip(), 32,
                                                  ports);
        },
        [this](std::size_t new_head) {
          // Responses must enter the chain at the new head: re-point the
          // rack ToRs' client routes at its trunk.
          for (std::size_t rack = 0; rack < config_.server_racks; ++rack) {
            for (const wire::Ipv4Address ip : client_ips_) {
              server_tor_programs_[rack]->add_route(
                  ip, rack_uplink_ports_[rack][new_head]);
            }
          }
        });
  }
  install_fault_plan(config_.faults);
}

void MultiRackExperiment::check_fault(const FaultEvent& event) const {
  if (event.action == FaultAction::kAggFail ||
      event.action == FaultAction::kAggRejoin) {
    NETCLONE_CHECK(chain_controller_ != nullptr,
                   std::string(fault_action_name(event.action)) +
                       " needs the replicated aggregation tier");
    (void)indexed_target(event, "agg", config_.num_aggs);
  }
}

bool MultiRackExperiment::schedule_expanded_fault(const FaultEvent& event) {
  switch (event.action) {
    case FaultAction::kAggFail: {
      const std::size_t a = indexed_target(event, "agg", config_.num_aggs);
      // Crash + splice + spray/route updates now; the reconcile marker
      // a little later.
      simulator().schedule_at(
          event.at, [this, a] { chain_controller_->fail_replica(a); });
      simulator().schedule_at(
          event.at + kChainSyncDelay,
          [this, a] { chain_controller_->reconcile_after_fail(a); });
      return true;
    }
    case FaultAction::kAggRejoin: {
      const std::size_t a = indexed_target(event, "agg", config_.num_aggs);
      // Same-instant pair: recover + bookkeeping fires before the
      // admit marker injection because it is scheduled first (equal
      // times break ties by scheduling order). Keep this call order.
      simulator().schedule_at(
          event.at, [this, a] { chain_controller_->rejoin_replica(a); });
      simulator().schedule_at(event.at, [this, a] {
        chain_controller_->inject_admit_marker(a);
      });
      simulator().schedule_at(
          event.at + kChainReadmitDelay,
          [this, a] { chain_controller_->readmit_spray(a); });
      return true;
    }
    default:
      return false;
  }
}

void MultiRackExperiment::apply_fat_tree_fault(const FaultEvent& event) {
  NETCLONE_CHECK(event.action == FaultAction::kRackDown ||
                     event.action == FaultAction::kRackUp,
                 "agg_fail/agg_rejoin are schedule-managed — install "
                 "them in a fault plan");
  const bool up = event.action == FaultAction::kRackUp;
  const std::size_t rack =
      indexed_target(event, "rack", config_.server_racks);
  const std::string tor = indexed_name("tor", rack + 2);
  for (std::size_t a = 0; a < config_.num_aggs; ++a) {
    const std::string agg = indexed_name("agg", a);
    link(tor + "-" + agg)->set_up(up);
    link(agg + "-" + tor)->set_up(up);
  }
}

void MultiRackExperiment::add_switch_counters(
    ExperimentResult& result) const {
  if (config_.agg_mode == AggMode::kReplicated) {
    // Each clone is decided at exactly one replica; verdicts are enacted
    // only at whichever replica holds the tail role — summing stays
    // correct as fail-over moves that authority around.
    for (const auto& program : agg_netclone_programs_) {
      result.cloned_requests += program->stats().cloned_requests;
      result.filtered_responses += program->stats().filtered_responses;
    }
  } else {
    result.cloned_requests = client_tor_program_->stats().cloned_requests;
    result.filtered_responses =
        client_tor_program_->stats().filtered_responses;
  }
  result.switch_stats = client_tor_->stats();
}

}  // namespace netclone::harness

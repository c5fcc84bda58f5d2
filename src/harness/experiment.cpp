#include "harness/experiment.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/groups.hpp"

namespace netclone::harness {

namespace {

/// The steering policy of a scheme whose ToR runs the NetClone program.
core::Steering steering_of(Scheme scheme) {
  switch (scheme) {
    case Scheme::kRackSched:
      return core::Steering::kShorterQueue;
    case Scheme::kNetCloneRackSched:
      return core::Steering::kCloneOrShorterQueue;
    default:
      return core::Steering::kCloneOrFirst;
  }
}

}  // namespace

Experiment::Experiment(ClusterConfig config)
    : Testbed(config, config.scheme), config_(std::move(config)) {
  NETCLONE_CHECK(config_.server_workers.size() >= 2,
                 "need at least two servers");
  NETCLONE_CHECK(config_.server_workers.size() < 150,
                 "server count exceeds the address plan");
  // Responses pass a filter under NetClone and the RackSched integration
  // (the ToR's filter tables) and under LAEDGE (the coordinator relays
  // one response per request); RackSched clones nothing, so it filters
  // nothing. The program rejects multi-packet tables under both
  // shorter-queue policies when it is built.
  if (config_.scheme == Scheme::kLaedge ||
      config_.scheme == Scheme::kNetClone ||
      config_.scheme == Scheme::kNetCloneRackSched) {
    check_response_fragments(config_.server_template.response_fragments,
                             config_.scheme == Scheme::kNetClone &&
                                 config_.netclone.enable_multipacket,
                             config_.netclone.num_filter_tables);
  }
  build();
}

Experiment::~Experiment() = default;

void Experiment::build() {
  const std::size_t num_servers = config_.server_workers.size();
  sim::Simulator& sim = simulator();

  switch_ = &topology().add_node<pisa::SwitchDevice>(sim, "tor");

  // The loopback port used for clone recirculation must exist before the
  // PRE multicast groups referencing it.
  const std::size_t recirc_port = switch_->add_internal_port();
  switch_->set_loopback_port(recirc_port);

  // Load the scheme's data-plane program: the NetClone program where the
  // switch steers requests, a router with a /32 route per host where the
  // hosts do. The program's tables must hold the whole rack.
  core::NetCloneConfig nc_cfg{config_.netclone};
  nc_cfg.max_servers = std::max(nc_cfg.max_servers, num_servers);
  nc_cfg.enable_filtering = config_.scheme != Scheme::kNetCloneNoFilter;
  switch (config_.scheme) {
    case Scheme::kNetClone:
    case Scheme::kNetCloneNoFilter:
    case Scheme::kRackSched:
    case Scheme::kNetCloneRackSched:
      netclone_program_ = std::make_shared<core::NetCloneProgram>(
          switch_->pipeline(), nc_cfg, core::AggChainRole{},
          steering_of(config_.scheme));
      switch_->load_program(netclone_program_);
      controller_ = std::make_unique<core::Controller>(*netclone_program_,
                                                       *switch_,
                                                       recirc_port);
      break;
    case Scheme::kBaseline:
    case Scheme::kCClone:
    case Scheme::kLaedge: {
      const std::size_t hosts = num_servers + config_.num_clients +
                                (config_.scheme == Scheme::kLaedge ? 1 : 0);
      router_ = std::make_shared<baselines::RouterProgram>(
          switch_->pipeline(), /*num_ports=*/recirc_port + 1 + hosts,
          /*route_capacity=*/hosts);
      switch_->load_program(router_);
      break;
    }
  }
  record_switch("sw0", *switch_);
  if (netclone_program_) {
    record_netclone("sw0", *netclone_program_);
  }

  // Workers.
  std::vector<wire::Ipv4Address> server_ips;
  std::vector<baselines::LaedgeWorkerInfo> laedge_workers;
  for (std::size_t i = 0; i < num_servers; ++i) {
    const auto sid = static_cast<ServerId>(static_cast<std::uint8_t>(i));
    auto& server = topology().add_node<host::Server>(
        sim,
        host::ServerParams{config_.server_template, sid,
                           config_.server_workers[i]},
        config_.service, root_rng().fork());
    const auto ports = topology().connect(server, *switch_);
    record_link(indexed_name("s", i), "sw0", ports);
    const wire::Ipv4Address ip = host::server_ip(sid);
    server_ips.push_back(ip);
    record_server(server);

    if (controller_) {
      // The control plane wires AddrT/FwdT/PRE and maintains the groups.
      controller_->add_server(sid, ip, ports.port_on_b);
    } else {
      router_->add_prefix(ip, 32, ports.port_on_b);
    }
    laedge_workers.push_back(
        baselines::LaedgeWorkerInfo{sid, ip, config_.server_workers[i]});
  }

  // The coordinator, for LÆDGE runs.
  if (config_.scheme == Scheme::kLaedge) {
    coordinator_ = &topology().add_node<baselines::LaedgeCoordinator>(
        sim, std::move(laedge_workers), root_rng().fork());
    const auto ports = topology().connect(*coordinator_, *switch_);
    record_link("co0", "sw0", ports);
    router_->add_prefix(host::coordinator_ip(), 32, ports.port_on_b);
  }

  // Clients.
  for (std::size_t c = 0; c < config_.num_clients; ++c) {
    host::ClientParams cp = client_params(config_, c);
    cp.num_groups =
        static_cast<std::uint16_t>(core::group_count(num_servers));
    cp.server_ips = server_ips;
    switch (config_.scheme) {
      case Scheme::kBaseline:
        cp.mode = host::SendMode::kDirectRandom;
        break;
      case Scheme::kCClone:
        cp.mode = host::SendMode::kCClone;
        break;
      case Scheme::kLaedge:
        cp.mode = host::SendMode::kToCoordinator;
        cp.target = host::coordinator_ip();
        break;
      default:
        cp.mode = host::SendMode::kViaSwitch;
        cp.target = host::service_vip();
        break;
    }
    auto& client = topology().add_node<host::Client>(
        sim, cp, config_.factory, root_rng().fork());
    const auto ports = topology().connect(client, *switch_);
    record_link(indexed_name("c", c), "sw0", ports);
    const wire::Ipv4Address ip = host::client_ip(cp.client_id);
    if (controller_) {
      controller_->add_route(ip, ports.port_on_b);
    } else {
      router_->add_prefix(ip, 32, ports.port_on_b);
    }
    record_client(client);
  }

  install_fault_plan(config_.faults);
}

void Experiment::remove_server(ServerId sid) {
  NETCLONE_CHECK(controller_ != nullptr,
                 "server removal is wired for the switch-steered schemes "
                 "only");
  controller_->remove_server(sid);
  for (host::Client* client : clients()) {
    client->set_num_groups(controller_->group_count());
  }
}

void Experiment::add_switch_counters(ExperimentResult& result) const {
  if (netclone_program_) {
    result.cloned_requests = netclone_program_->stats().cloned_requests;
    result.filtered_responses =
        netclone_program_->stats().filtered_responses;
  }
  result.switch_stats = switch_->stats();
}

}  // namespace netclone::harness

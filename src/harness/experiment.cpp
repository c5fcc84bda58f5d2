#include "harness/experiment.hpp"

#include "common/check.hpp"
#include "core/groups.hpp"

namespace netclone::harness {

namespace {

/// agg_fail/agg_rejoin/rack_down/rack_up act on a fat-tree's aggregation
/// tier and racks; a single-rack Experiment has neither.
void reject_fat_tree_action(FaultAction action) {
  switch (action) {
    case FaultAction::kAggFail:
    case FaultAction::kAggRejoin:
    case FaultAction::kRackDown:
    case FaultAction::kRackUp:
      throw CheckFailure(std::string("fault action '") +
                         fault_action_name(action) +
                         "' needs a fat-tree MultiRackExperiment");
    default:
      break;
  }
}

}  // namespace

Experiment::Experiment(ClusterConfig config)
    : Testbed(Schedule{config.scheme, config.offered_rps, config.measure,
                       config.warmup + config.measure + config.drain,
                       config.seed}),
      config_(std::move(config)) {
  NETCLONE_CHECK(config_.factory != nullptr, "config needs a factory");
  NETCLONE_CHECK(config_.service != nullptr, "config needs a service");
  NETCLONE_CHECK(config_.server_workers.size() >= 2,
                 "need at least two servers");
  NETCLONE_CHECK(config_.num_clients >= 1, "need at least one client");
  // Responses pass a filter under NetClone and the RackSched integration
  // (the ToR's filter tables) and under LAEDGE (the coordinator relays
  // one response per request); only NetClone has multi-packet tables.
  if (config_.scheme == Scheme::kLaedge ||
      ((config_.scheme == Scheme::kNetClone ||
        config_.scheme == Scheme::kNetCloneRackSched) &&
       config_.netclone.enable_filtering)) {
    check_response_fragments(config_.server_template.response_fragments,
                             config_.scheme == Scheme::kNetClone &&
                                 config_.netclone.enable_multipacket,
                             config_.netclone.num_filter_tables);
  }
  build();
}

Experiment::~Experiment() = default;

void Experiment::build() {
  const wire::ScopedPoolBinding bind(pool());
  const std::size_t num_servers = config_.server_workers.size();
  sim::Simulator& sim = simulator();

  switch_ = &topology().add_node<pisa::SwitchDevice>(sim, "tor");

  // The loopback port used for clone recirculation must exist before the
  // PRE multicast groups referencing it.
  const std::size_t recirc_port = switch_->add_internal_port();
  switch_->set_loopback_port(recirc_port);

  // Load the scheme's data-plane program.
  const bool uses_netclone = config_.scheme == Scheme::kNetClone ||
                             config_.scheme == Scheme::kNetCloneNoFilter;
  core::NetCloneConfig nc_cfg = config_.netclone;
  nc_cfg.enable_filtering =
      config_.scheme != Scheme::kNetCloneNoFilter &&
      nc_cfg.enable_filtering;
  switch (config_.scheme) {
    case Scheme::kNetClone:
    case Scheme::kNetCloneNoFilter:
      netclone_program_ = std::make_shared<core::NetCloneProgram>(
          switch_->pipeline(), nc_cfg);
      switch_->load_program(netclone_program_);
      controller_ = std::make_unique<core::Controller>(*netclone_program_,
                                                       *switch_,
                                                       recirc_port);
      break;
    case Scheme::kNetCloneRackSched:
      integration_program_ =
          std::make_shared<baselines::NetCloneRackSchedProgram>(
              switch_->pipeline(), nc_cfg);
      switch_->load_program(integration_program_);
      break;
    case Scheme::kRackSched:
      racksched_program_ = std::make_shared<baselines::RackSchedProgram>(
          switch_->pipeline(), nc_cfg.max_servers, root_rng().next_u64());
      switch_->load_program(racksched_program_);
      break;
    case Scheme::kBaseline:
    case Scheme::kCClone:
    case Scheme::kLaedge:
      l3_program_ = std::make_shared<baselines::L3ForwardProgram>(
          switch_->pipeline());
      switch_->load_program(l3_program_);
      break;
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
    host::ServerParams sp = config_.server_template;
    sp.sid = sid;
    sp.workers = config_.server_workers[i];
    auto& server = topology().add_node<host::Server>(
        sim, sp, config_.service, root_rng().fork());
    const auto ports = topology().connect(server, *switch_);
    record_link(indexed_name("s", i), "sw0", ports);
    const wire::Ipv4Address ip = host::server_ip(sid);
    server_ips.push_back(ip);
    record_server(server);

    const auto mcast_group = static_cast<std::uint16_t>(i + 1);
    if (uses_netclone) {
      // The control plane wires AddrT/FwdT/PRE and maintains the groups.
      controller_->add_server(sid, ip, ports.port_on_b);
    } else {
      switch_->configure_multicast_group(mcast_group,
                                         {ports.port_on_b, recirc_port});
    }
    if (uses_netclone) {
      // handled above
    } else if (integration_program_) {
      integration_program_->add_server(sid, ip, ports.port_on_b,
                                       mcast_group);
    } else if (racksched_program_) {
      racksched_program_->add_server(sid, ip, ports.port_on_b);
    } else {
      l3_program_->add_route(ip, ports.port_on_b);
    }
    laedge_workers.push_back(
        baselines::LaedgeWorkerInfo{sid, ip, config_.server_workers[i]});
  }

  // Candidate groups for the cloning schemes (the controller already
  // installed them for the NetClone schemes).
  const auto groups = core::build_group_pairs(num_servers);
  if (integration_program_) {
    integration_program_->install_groups(groups);
  }

  // The coordinator, for LÆDGE runs.
  if (config_.scheme == Scheme::kLaedge) {
    baselines::LaedgeParams lp;
    lp.workers = laedge_workers;
    coordinator_ = &topology().add_node<baselines::LaedgeCoordinator>(
        sim, lp, root_rng().fork());
    const auto ports = topology().connect(*coordinator_, *switch_);
    record_link("co0", "sw0", ports);
    l3_program_->add_route(host::coordinator_ip(), ports.port_on_b);
  }

  // Clients.
  const SimTime stop_at = config_.warmup + config_.measure;
  for (std::size_t c = 0; c < config_.num_clients; ++c) {
    host::ClientParams cp = config_.client_template;
    cp.client_id = static_cast<std::uint16_t>(c);
    cp.rate_rps =
        config_.offered_rps / static_cast<double>(config_.num_clients);
    cp.num_groups = static_cast<std::uint16_t>(groups.size());
    cp.num_filter_tables =
        static_cast<std::uint8_t>(config_.netclone.num_filter_tables);
    cp.server_ips = server_ips;
    cp.warmup_until = config_.warmup;
    cp.stop_at = stop_at;
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
    if (uses_netclone) {
      controller_->add_route(ip, ports.port_on_b);
    } else if (integration_program_) {
      integration_program_->add_route(ip, ports.port_on_b);
    } else if (racksched_program_) {
      racksched_program_->add_route(ip, ports.port_on_b);
    } else {
      l3_program_->add_route(ip, ports.port_on_b);
    }
    record_client(client);
  }

  install_fault_plan(config_.faults);
}

void Experiment::check_fault(const FaultEvent& event) const {
  reject_fat_tree_action(event.action);
}

void Experiment::apply_fat_tree_fault(const FaultEvent& event) {
  reject_fat_tree_action(event.action);
}

void Experiment::remove_server(ServerId sid) {
  NETCLONE_CHECK(controller_ != nullptr,
                 "server removal is wired for the NetClone schemes only");
  controller_->remove_server(sid);
  for (host::Client* client : clients()) {
    client->set_num_groups(controller_->group_count());
  }
}

std::vector<std::uint64_t> Experiment::run_timeline(
    SimTime total, SimTime bin, std::optional<SimTime> fail_at,
    std::optional<SimTime> recover_at) {
  start_timeline(bin);
  if (fail_at) {
    simulator().schedule_at(*fail_at, [this] { switch_->fail(); });
  }
  if (recover_at) {
    simulator().schedule_at(*recover_at, [this] { switch_->recover(); });
  }
  return completions_per_bin(total, bin);
}

void Experiment::add_switch_counters(ExperimentResult& result) const {
  if (netclone_program_) {
    result.cloned_requests = netclone_program_->stats().cloned_requests;
    result.filtered_responses =
        netclone_program_->stats().filtered_responses;
  } else if (integration_program_) {
    result.cloned_requests = integration_program_->stats().cloned_requests;
    result.filtered_responses =
        integration_program_->stats().filtered_responses;
  }
  result.switch_stats = switch_->stats();
}

}  // namespace netclone::harness

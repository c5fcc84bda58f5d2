#include "harness/experiment.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "core/groups.hpp"

namespace netclone::harness {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kBaseline:
      return "Baseline";
    case Scheme::kCClone:
      return "C-Clone";
    case Scheme::kLaedge:
      return "LAEDGE";
    case Scheme::kNetClone:
      return "NetClone";
    case Scheme::kNetCloneNoFilter:
      return "NetClone-NoFilter";
    case Scheme::kRackSched:
      return "RackSched";
    case Scheme::kNetCloneRackSched:
      return "NetClone+RackSched";
  }
  return "?";
}

namespace {

/// "s3"-style node name. Built by append rather than operator+ to dodge
/// a GCC 12 -Wrestrict false positive on char* + to_string temporaries.
std::string node_name(char prefix, std::size_t index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace

double cluster_capacity_rps(const std::vector<std::uint32_t>& server_workers,
                            double mean_service_us) {
  NETCLONE_CHECK(mean_service_us > 0.0, "service time must be positive");
  std::uint64_t workers = 0;
  for (const std::uint32_t w : server_workers) {
    workers += w;
  }
  return static_cast<double>(workers) * 1e6 / mean_service_us;
}

Experiment::Experiment(ClusterConfig config)
    : config_(std::move(config)), root_rng_(config_.seed) {
  NETCLONE_CHECK(config_.factory != nullptr, "config needs a factory");
  NETCLONE_CHECK(config_.service != nullptr, "config needs a service");
  NETCLONE_CHECK(config_.server_workers.size() >= 2,
                 "need at least two servers");
  NETCLONE_CHECK(config_.num_clients >= 1, "need at least one client");
  build();
}

Experiment::~Experiment() = default;

sim::Scheduler& Experiment::scheduler() { return engine_->scheduler(); }

std::uint64_t Experiment::executed_events() const {
  return engine_->executed_events();
}

std::vector<wire::FramePool::Stats> Experiment::frame_pool_stats() const {
  return engine_->frame_pool_stats();
}

void Experiment::build() {
  engine_ = std::make_unique<EngineContext>();
  const wire::ScopedPoolBinding bind(engine_->pool());
  const std::size_t num_servers = config_.server_workers.size();
  sim::Scheduler& sim = engine_->scheduler();
  topology_ = std::make_unique<phys::Topology>(sim);

  switch_ = &topology_->add_node<pisa::SwitchDevice>(sim, "tor",
                                                     config_.switch_params);

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
          switch_->pipeline(), nc_cfg.max_servers, root_rng_.next_u64());
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

  // Workers.
  std::vector<wire::Ipv4Address> server_ips;
  std::vector<baselines::LaedgeWorkerInfo> laedge_workers;
  for (std::size_t i = 0; i < num_servers; ++i) {
    const auto sid = static_cast<ServerId>(static_cast<std::uint8_t>(i));
    host::ServerParams sp = config_.server_template;
    sp.sid = sid;
    sp.workers = config_.server_workers[i];
    auto& server = topology_->add_node<host::Server>(
        sim, sp, config_.service, root_rng_.fork());
    const auto ports = topology_->connect(server, *switch_);
    record_link(node_name('s', i), "sw0", ports);
    const wire::Ipv4Address ip = host::server_ip(sid);
    server_ips.push_back(ip);
    servers_.push_back(&server);

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
    lp.per_packet_cost = config_.laedge_packet_cost;
    lp.workers = laedge_workers;
    coordinator_ = &topology_->add_node<baselines::LaedgeCoordinator>(
        sim, lp, root_rng_.fork());
    const auto ports = topology_->connect(*coordinator_, *switch_);
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
    auto& client = topology_->add_node<host::Client>(
        sim, cp, config_.factory, root_rng_.fork());
    const auto ports = topology_->connect(client, *switch_);
    record_link(node_name('c', c), "sw0", ports);
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
    clients_.push_back(&client);
  }

  install_fault_plan(config_.faults);
}

void Experiment::record_link(const std::string& a, const std::string& b,
                             const phys::DuplexPorts& ports) {
  links_.emplace_back(a + "-" + b, ports.a_to_b);
  links_.emplace_back(b + "-" + a, ports.b_to_a);
}

std::uint64_t Experiment::impairment_seed(const std::string& name) const {
  return mix64(config_.seed ^ fnv1a(std::string_view{name}));
}

phys::Link* Experiment::link(const std::string& name) const {
  for (const auto& [key, link] : links_) {
    if (key == name) {
      return link;
    }
  }
  return nullptr;
}

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

void Experiment::install_fault_plan(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events) {
    reject_fat_tree_action(event.action);
  }
  // The events live in fault_events_ and each timed event captures its
  // index, which keeps the capture inside EventCallback's inline storage.
  for (const FaultEvent& event : plan.events) {
    const std::size_t index = fault_events_.size();
    fault_events_.push_back(event);
    scheduler().schedule_at(event.at, [this, index] {
      apply_fault(fault_events_[index]);
    });
  }
}

void Experiment::apply_fault(const FaultEvent& event) {
  const auto parse_server = [this](const std::string& target) {
    NETCLONE_CHECK(target.size() >= 2 && target[0] == 's',
                   "bad server target: " + target);
    const std::size_t index =
        static_cast<std::size_t>(std::stoul(target.substr(1)));
    NETCLONE_CHECK(index < servers_.size(),
                   "server target out of range: " + target);
    return servers_[index];
  };
  const auto target_link = [this](const std::string& target) {
    phys::Link* l = link(target);
    NETCLONE_CHECK(l != nullptr, "unknown link target: " + target);
    return l;
  };
  const auto merge_rate = [&](auto member) {
    phys::Link* l = target_link(event.target);
    phys::LinkImpairments cfg =
        l->impairments() != nullptr ? *l->impairments()
                                    : phys::LinkImpairments{};
    cfg.*member = event.value;
    l->configure_impairments(cfg, impairment_seed(event.target));
  };

  switch (event.action) {
    case FaultAction::kLinkDown:
      target_link(event.target)->set_up(false);
      break;
    case FaultAction::kLinkUp:
      target_link(event.target)->set_up(true);
      break;
    case FaultAction::kDropRate:
      merge_rate(&phys::LinkImpairments::drop_rate);
      break;
    case FaultAction::kCorruptRate:
      merge_rate(&phys::LinkImpairments::corrupt_rate);
      break;
    case FaultAction::kReorderRate:
      merge_rate(&phys::LinkImpairments::reorder_rate);
      break;
    case FaultAction::kDuplicateRate:
      merge_rate(&phys::LinkImpairments::duplicate_rate);
      break;
    case FaultAction::kServerCrash:
      parse_server(event.target)->crash();
      break;
    case FaultAction::kServerRestart:
      parse_server(event.target)->restart();
      break;
    case FaultAction::kServerPause:
      parse_server(event.target)->pause();
      break;
    case FaultAction::kServerResume:
      parse_server(event.target)->resume();
      break;
    case FaultAction::kServerSlowdown:
      parse_server(event.target)->set_slowdown(event.value);
      break;
    case FaultAction::kSwitchFail:
      switch_->fail();
      break;
    case FaultAction::kSwitchRecover:
      switch_->recover();
      break;
    case FaultAction::kSwitchWipe:
      switch_->wipe_soft_state();
      break;
    case FaultAction::kFilterStale:
      NETCLONE_CHECK(netclone_program_ != nullptr,
                     "filter_stale requires a NetClone scheme");
      netclone_program_->inject_stale_filter_entry(
          event.table, static_cast<std::uint32_t>(event.value));
      break;
    case FaultAction::kAggFail:
    case FaultAction::kAggRejoin:
    case FaultAction::kRackDown:
    case FaultAction::kRackUp:
      reject_fat_tree_action(event.action);
      break;
  }
}

void Experiment::remove_server(ServerId sid) {
  NETCLONE_CHECK(controller_ != nullptr,
                 "server removal is wired for the NetClone schemes only");
  controller_->remove_server(sid);
  for (host::Client* client : clients_) {
    client->set_num_groups(controller_->group_count());
  }
}

ExperimentResult Experiment::run() {
  for (host::Client* client : clients_) {
    client->start();
  }
  const SimTime end = config_.warmup + config_.measure + config_.drain;
  engine_->run_until(end);
  return collect();
}

std::vector<std::uint64_t> Experiment::run_timeline(
    SimTime total, SimTime bin, std::optional<SimTime> fail_at,
    std::optional<SimTime> recover_at) {
  NETCLONE_CHECK(bin > SimTime::zero(), "bin must be positive");
  for (host::Client* client : clients_) {
    client->start();
  }
  if (fail_at) {
    scheduler().schedule_at(*fail_at, [this] { switch_->fail(); });
  }
  if (recover_at) {
    scheduler().schedule_at(*recover_at, [this] { switch_->recover(); });
  }
  std::vector<std::uint64_t> bins;
  std::uint64_t last_total = 0;
  for (SimTime t = bin; t <= total; t += bin) {
    engine_->run_until(t);
    std::uint64_t now_total = 0;
    for (const host::Client* client : clients_) {
      now_total += client->stats().completed;
    }
    bins.push_back(now_total - last_total);
    last_total = now_total;
  }
  return bins;
}

ExperimentResult Experiment::collect() const {
  ExperimentResult result;
  result.scheme = config_.scheme;
  result.offered_rps = config_.offered_rps;

  LatencyHistogram merged;
  LatencyHistogram merged_wait;
  LatencyHistogram merged_service;
  for (const host::Client* client : clients_) {
    const host::ClientStats& cs = client->stats();
    merged.merge(cs.latency);
    merged_wait.merge(cs.server_queue_wait);
    merged_service.merge(cs.server_service);
    result.requests_sent += cs.requests_sent;
    result.completed += cs.completed_in_window;
    result.redundant_responses += cs.redundant_responses;
  }
  result.achieved_rps =
      static_cast<double>(result.completed) / config_.measure.sec();
  result.mean_us = merged.mean_ns() / 1e3;
  result.p50 = merged.p50();
  result.p99 = merged.p99();
  result.p999 = merged.p999();
  result.server_wait_p99 = merged_wait.p99();
  result.server_service_p99 = merged_service.p99();

  std::uint64_t empty = 0;
  std::uint64_t total = 0;
  for (const host::Server* server : servers_) {
    const host::ServerStats& ss = server->stats();
    result.dropped_stale_clones += ss.dropped_stale_clones;
    empty += ss.responses_with_empty_queue;
    total += ss.responses_total;
  }
  result.empty_queue_fraction =
      total == 0 ? 0.0
                 : static_cast<double>(empty) / static_cast<double>(total);

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
  return result;
}

}  // namespace netclone::harness

#include "harness/testbed.hpp"

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/histogram.hpp"

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

double cluster_capacity_rps(const std::vector<std::uint32_t>& server_workers,
                            double mean_service_us) {
  NETCLONE_CHECK(mean_service_us > 0.0, "service time must be positive");
  std::uint64_t workers = 0;
  for (const std::uint32_t w : server_workers) {
    workers += w;
  }
  return static_cast<double>(workers) * 1e6 / mean_service_us;
}

Testbed::Testbed(const RunConfig& config, Scheme scheme)
    : schedule_{scheme, config.offered_rps, config.measure,
                config.warmup + config.measure + config.drain, config.seed},
      topology_(sim_, pool_),
      root_rng_(config.seed) {
  NETCLONE_CHECK(config.factory != nullptr, "config needs a factory");
  NETCLONE_CHECK(config.service != nullptr, "config needs a service");
  NETCLONE_CHECK(config.num_clients >= 1, "need at least one client");
}

Testbed::~Testbed() = default;

std::uint64_t Testbed::executed_events() const {
  return sim_.executed_events();
}

std::vector<wire::FramePool::Stats> Testbed::frame_pool_stats() const {
  return {pool_.stats()};
}

host::ClientParams Testbed::client_params(const RunConfig& config,
                                          std::size_t c) {
  host::ClientParams cp{config.client_template};
  cp.client_id = static_cast<std::uint16_t>(c);
  cp.rate_rps = config.offered_rps / static_cast<double>(config.num_clients);
  cp.num_filter_tables =
      static_cast<std::uint8_t>(config.netclone.num_filter_tables);
  cp.warmup_until = config.warmup;
  cp.stop_at = config.warmup + config.measure;
  return cp;
}

// -- registries ------------------------------------------------------------

void Testbed::record_link(const std::string& a, const std::string& b,
                          const phys::DuplexPorts& ports) {
  links_.emplace_back(a + "-" + b, ports.a_to_b);
  links_.emplace_back(b + "-" + a, ports.b_to_a);
}

phys::Link* Testbed::link(const std::string& name) const {
  for (const auto& [key, link] : links_) {
    if (key == name) {
      return link;
    }
  }
  return nullptr;
}

// -- faults ----------------------------------------------------------------

std::string Testbed::indexed_name(std::string_view prefix,
                                  std::size_t index) {
  // Built by append rather than operator+ to dodge a GCC 12 -Wrestrict
  // false positive on char* + to_string temporaries.
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

std::size_t Testbed::indexed_target(const FaultEvent& event,
                                    std::string_view prefix,
                                    std::size_t count) {
  const std::optional<std::size_t> index =
      target_index(event.target, prefix);
  NETCLONE_CHECK(index.has_value(), "bad fault target '" + event.target +
                                        "' (expected " +
                                        std::string(prefix) + "<N>)");
  NETCLONE_CHECK(*index < count, std::string(fault_action_name(event.action)) +
                                     " target out of range: " +
                                     event.target);
  return *index;
}

void Testbed::check_response_fragments(std::uint8_t response_fragments,
                                       bool multipacket_tables,
                                       std::size_t num_filter_tables) {
  if (response_fragments <= 1) {
    return;
  }
  const std::string frags = std::to_string(response_fragments);
  NETCLONE_CHECK(multipacket_tables,
                 frags + " response fragments need multi-packet filter "
                 "tables: without them the response filter drops every "
                 "fragment after the first as a duplicate");
  NETCLONE_CHECK(response_fragments <= num_filter_tables,
                 frags + " response fragments need at least " + frags +
                     " filter tables, not " +
                     std::to_string(num_filter_tables) +
                     ": a fragment sharing a table with an earlier one "
                     "is dropped as a duplicate");
}

pisa::SwitchDevice& Testbed::target_switch(const std::string& name) const {
  for (const auto& [key, device] : switches_) {
    if (key == name) {
      return *device;
    }
  }
  throw CheckFailure("unknown switch target: " + name);
}

phys::Link& Testbed::target_link(const std::string& name) const {
  phys::Link* l = link(name);
  NETCLONE_CHECK(l != nullptr, "unknown link target: " + name);
  return *l;
}

std::uint64_t Testbed::impairment_seed(const std::string& name) const {
  return mix64(schedule_.seed ^ fnv1a(std::string_view{name}));
}

void Testbed::install_fault_plan(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events) {
    check_fault(event);
  }
  for (const FaultEvent& event : plan.events) {
    if (schedule_expanded_fault(event)) {
      continue;
    }
    // The events live in fault_events_ and each timed event captures its
    // index: an event captures plain data, and the event's target string
    // is owned state.
    const std::size_t index = fault_events_.size();
    fault_events_.push_back(event);
    sim_.schedule_at(event.at, [this, index] {
      apply_fault(fault_events_[index]);
    });
  }
}

void Testbed::apply_fault(const FaultEvent& event) {
  const auto server = [&]() -> host::Server& {
    return *servers_[indexed_target(event, "s", servers_.size())];
  };
  const auto merge_rate = [&](double phys::LinkImpairments::*member) {
    phys::Link& l = target_link(event.target);
    phys::LinkImpairments cfg = l.impairments() != nullptr
                                    ? *l.impairments()
                                    : phys::LinkImpairments{};
    cfg.*member = event.value;
    l.configure_impairments(cfg, impairment_seed(event.target));
  };

  switch (event.action) {
    case FaultAction::kLinkDown:
      target_link(event.target).set_up(false);
      break;
    case FaultAction::kLinkUp:
      target_link(event.target).set_up(true);
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
      server().crash();
      break;
    case FaultAction::kServerRestart:
      server().restart();
      break;
    case FaultAction::kServerPause:
      server().pause();
      break;
    case FaultAction::kServerResume:
      server().resume();
      break;
    case FaultAction::kServerSlowdown:
      server().set_slowdown(event.value);
      break;
    case FaultAction::kSwitchFail:
      target_switch(event.target).fail();
      break;
    case FaultAction::kSwitchRecover:
      target_switch(event.target).recover();
      break;
    case FaultAction::kSwitchWipe:
      target_switch(event.target).wipe_soft_state();
      break;
    case FaultAction::kFilterStale: {
      (void)target_switch(event.target);
      core::NetCloneProgram* program = nullptr;
      for (const auto& [name, netclone] : netclone_programs_) {
        if (name == event.target) {
          program = netclone;
          break;
        }
      }
      NETCLONE_CHECK(program != nullptr,
                     "filter_stale needs a NetClone program on switch " +
                         event.target);
      NETCLONE_CHECK(!program->replicated(),
                     "filter_stale cannot plant into replica " +
                         event.target +
                         ": a fingerprint in one replica alone breaks the "
                         "chain's convergence, which the auditor enforces");
      program->inject_stale_filter_entry(
          event.table, static_cast<std::uint32_t>(event.value));
      break;
    }
    case FaultAction::kAggFail:
    case FaultAction::kAggRejoin:
    case FaultAction::kRackDown:
    case FaultAction::kRackUp:
      apply_fat_tree_fault(event);
      break;
  }
}

void Testbed::check_fault(const FaultEvent& event) const {
  switch (event.action) {
    case FaultAction::kAggFail:
    case FaultAction::kAggRejoin:
    case FaultAction::kRackDown:
    case FaultAction::kRackUp:
      throw CheckFailure(std::string("fault action '") +
                         fault_action_name(event.action) +
                         "' needs a fat-tree MultiRackExperiment");
    default:
      break;
  }
}

void Testbed::apply_fat_tree_fault(const FaultEvent& event) {
  Testbed::check_fault(event);  // throws: only fat-tree actions come here
}

// -- running ---------------------------------------------------------------

void Testbed::start_clients() {
  for (host::Client* client : clients_) {
    client->start();
  }
}

ExperimentResult Testbed::run() {
  start_clients();
  sim_.run_until(schedule_.end);
  return collect();
}

std::vector<std::uint64_t> Testbed::run_timeline(SimTime total,
                                                 SimTime bin) {
  NETCLONE_CHECK(bin > SimTime::zero(), "bin must be positive");
  start_clients();
  std::vector<std::uint64_t> bins;
  std::uint64_t last_total = 0;
  for (SimTime t = bin; t <= total; t += bin) {
    sim_.run_until(t);
    std::uint64_t now_total = 0;
    for (const host::Client* client : clients_) {
      now_total += client->stats().completed;
    }
    bins.push_back(now_total - last_total);
    last_total = now_total;
  }
  return bins;
}

ExperimentResult Testbed::collect() const {
  ExperimentResult result;
  result.scheme = schedule_.scheme;
  result.offered_rps = schedule_.offered_rps;

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
      static_cast<double>(result.completed) / schedule_.measure.sec();
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

  add_switch_counters(result);
  return result;
}

}  // namespace netclone::harness

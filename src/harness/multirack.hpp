// Multi-rack fat-tree harness (§3.7 "Multi-rack deployment", extended).
//
// Topology: a 2-tier fat tree — one client rack and N server racks, each
// behind its own ToR, joined by a tier of parallel aggregation switches
// every ToR uplinks to:
//
//   clients — ToR#1 ══ agg0 ┄ agg1 ┄ ... ══ ToR#2 — servers rack 0
//                      ║        ║     ══ ToR#3 — servers rack 1 ...
//
// Two aggregation modes:
//
//   * kOblivious — the paper's §3.7 layout generalized to many aggs:
//     cloning/filtering run at the client-side ToR; the aggregation tier
//     is plain LPM routing and passes NetClone packets through untouched.
//   * kReplicated — the aggregation tier itself is NetClone-aware and the
//     per-agg soft state (StateT/ShadowT/FilterT) is chain-replicated
//     NetChain-style across the replicas (see agg_netclone_program.hpp):
//     requests ECMP-spray over the aggs, responses flow head→tail over
//     dedicated chain links, only the tail enacts filter verdicts. The
//     client-side ToR degenerates to a plain router.
//
// Oversubscription is expressed through the link parameters: `host_link`
// for edge links, `trunk_link` for ToR↔agg uplinks and the chain.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/agg_router.hpp"
#include "core/agg_netclone_program.hpp"
#include "core/netclone_program.hpp"
#include "harness/chain_controller.hpp"
#include "harness/engine.hpp"
#include "harness/experiment.hpp"
#include "harness/faults.hpp"

namespace netclone::harness {

/// How the aggregation tier treats NetClone traffic.
enum class AggMode {
  kOblivious,   // plain LPM aggs, cloning at the client ToR (§3.7)
  kReplicated,  // NetClone-aware aggs with chain-replicated soft state
};

struct MultiRackConfig {
  std::size_t server_racks = 2;
  std::size_t servers_per_rack = 3;
  /// Parallel aggregation switches (the fat-tree spine of this pod).
  std::size_t num_aggs = 1;
  AggMode agg_mode = AggMode::kOblivious;
  std::uint32_t workers = 16;
  std::size_t num_clients = 2;
  double offered_rps = 1e6;
  SimTime warmup = SimTime::milliseconds(5);
  SimTime measure = SimTime::milliseconds(25);
  SimTime drain = SimTime::milliseconds(15);
  std::uint64_t seed = 1;
  std::shared_ptr<host::RequestFactory> factory;
  std::shared_ptr<host::ServiceModel> service;
  core::NetCloneConfig netclone{};
  host::ClientParams client_template{};
  host::ServerParams server_template{};
  /// Edge links (host ↔ ToR).
  phys::LinkParams host_link{};
  /// ToR ↔ agg uplinks and the agg↔agg chain links. Oversubscription is
  /// modeled by giving these a lower rate than `host_link`. The default
  /// delay is longer than the edge default — cross-tier cables are —
  /// which also keeps same-instant arrival coincidences between tiers
  /// rare.
  phys::LinkParams trunk_link{100e9, SimTime::nanoseconds(1700), 1024};
  /// Timed fault plan. Targets resolve against fat-tree names: switches
  /// `tor1`/`tor2`../`agg0`.., links `tor1-agg0`/`agg0-agg1`/`tor2-s0`,
  /// servers `s<N>` (global id), racks `rack<N>`, and the managed chain
  /// pair `agg_fail`/`agg_rejoin` (kReplicated mode only). Installed at
  /// build time so fault firing shares the deterministic event order.
  FaultPlan faults{};
  /// agg_fail: delay between the chain splice and the reconcile marker.
  /// Must exceed the worst-case residual flight time of a response on a
  /// chain/trunk link (~10us with the defaults) so the marker's snapshot
  /// supersedes every frame the splice orphaned.
  SimTime chain_sync_delay = SimTime::microseconds(50);
  /// agg_rejoin: delay before the rejoined replica re-enters the client
  /// ToR's ECMP spray set (the admit marker must have landed by then).
  SimTime chain_readmit_delay = SimTime::microseconds(50);
};

/// One built-and-runnable fat-tree pod; see Experiment for the lifecycle.
class MultiRackExperiment {
 public:
  explicit MultiRackExperiment(MultiRackConfig config);
  ~MultiRackExperiment();

  MultiRackExperiment(const MultiRackExperiment&) = delete;
  MultiRackExperiment& operator=(const MultiRackExperiment&) = delete;

  [[nodiscard]] ExperimentResult run();
  /// Drives the run in `bin`-sized steps and returns completed requests
  /// per bin — the bench_fig16-style recovery-time probe. The installed
  /// fault plan fires on schedule during the walk.
  [[nodiscard]] std::vector<std::uint64_t> run_timeline(SimTime total,
                                                        SimTime bin);

  /// Applies one fault immediately (tests / manual drivers). The managed
  /// agg_fail/agg_rejoin actions must ride the installed plan instead —
  /// they expand into multiple timed events.
  void apply_fault(const FaultEvent& event);

  // -- programs -----------------------------------------------------------

  /// The NetClone program at the client ToR (kOblivious mode only).
  [[nodiscard]] const core::NetCloneProgram& client_tor_program() const;
  [[nodiscard]] const core::NetCloneProgram& server_tor_program(
      std::size_t rack) const {
    return *server_tor_programs_.at(rack);
  }
  /// Aggregation router `agg` (kOblivious mode only).
  [[nodiscard]] const baselines::AggRouterProgram& agg_program(
      std::size_t agg = 0) const;
  /// Chain replica `agg` (kReplicated mode only).
  [[nodiscard]] const core::AggNetCloneProgram& agg_netclone_program(
      std::size_t agg = 0) const;

  // -- structure ----------------------------------------------------------

  [[nodiscard]] const MultiRackConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_aggs() const { return config_.num_aggs; }
  [[nodiscard]] const std::vector<host::Server*>& servers() const {
    return servers_;
  }
  [[nodiscard]] const std::vector<host::Client*>& clients() const {
    return clients_;
  }
  /// All directed links with their harness names, for the auditor.
  [[nodiscard]] const std::vector<std::pair<std::string, phys::Link*>>&
  links() const {
    return links_;
  }
  [[nodiscard]] phys::Link* link(const std::string& name) const;
  /// Every switch in build order (aggs, client ToR, rack ToRs), named.
  [[nodiscard]] const std::vector<std::pair<std::string, pisa::SwitchDevice*>>&
  switches() const {
    return switches_;
  }
  /// Fail-over controller (kReplicated mode only; null otherwise).
  [[nodiscard]] const ChainController* chain_controller() const {
    return chain_controller_.get();
  }

  // -- engine telemetry (same surface as Experiment) ----------------------

  [[nodiscard]] sim::Scheduler& scheduler();
  [[nodiscard]] std::uint64_t executed_events() const;
  [[nodiscard]] std::vector<wire::FramePool::Stats> frame_pool_stats() const;

 private:
  void build();
  /// Schedules config_.faults; its events stay there and the scheduled
  /// events index into them.
  void install_fault_plan();
  [[nodiscard]] std::uint64_t impairment_seed(const std::string& name) const;
  /// topology_->connect() with the pod's per-link delay skew.
  phys::DuplexPorts connect_nodes(phys::Node& a, phys::Node& b,
                                  phys::LinkParams params);
  void record_link(const std::string& a, const std::string& b,
                   const phys::DuplexPorts& ports);

  MultiRackConfig config_;
  Rng root_rng_;
  // The engine must outlive topology_ (links cancel events and nodes
  // release pooled frames on destruction), so it is declared before it.
  std::unique_ptr<EngineContext> engine_;
  std::unique_ptr<phys::Topology> topology_;
  pisa::SwitchDevice* client_tor_ = nullptr;
  std::vector<pisa::SwitchDevice*> aggs_;
  std::vector<pisa::SwitchDevice*> server_tors_;
  std::vector<std::pair<std::string, pisa::SwitchDevice*>> switches_;
  std::vector<std::pair<std::string, phys::Link*>> links_;
  // kOblivious mode:
  std::shared_ptr<core::NetCloneProgram> client_tor_program_;
  std::vector<std::shared_ptr<baselines::AggRouterProgram>>
      agg_router_programs_;
  // kReplicated mode:
  std::shared_ptr<baselines::AggRouterProgram> client_router_program_;
  std::vector<std::shared_ptr<core::AggNetCloneProgram>>
      agg_netclone_programs_;
  // Both modes:
  std::vector<std::shared_ptr<core::NetCloneProgram>> server_tor_programs_;
  std::vector<host::Server*> servers_;
  std::vector<host::Client*> clients_;
  // kReplicated fail-over plumbing: the chain-link port mesh
  // (chain_ports_[i][j] = agg i's port toward agg j), the client ToR's
  // uplink ports (ECMP spray members), each rack ToR's uplink port per
  // agg (response re-pointing), and the client addresses those routes
  // cover.
  std::vector<std::vector<std::optional<std::size_t>>> chain_ports_;
  std::vector<std::size_t> spray_uplink_ports_;
  std::vector<std::vector<std::size_t>> rack_uplink_ports_;
  std::vector<wire::Ipv4Address> client_ips_;
  std::shared_ptr<core::AggChainSyncHub> sync_hub_;
  std::unique_ptr<ChainController> chain_controller_;
};

}  // namespace netclone::harness

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
//   * kReplicated — every agg runs NetCloneProgram as one replica of a
//     chain, and the soft state (StateT/ShadowT/FilterT) is
//     chain-replicated NetChain-style across the replicas (see
//     netclone_program.hpp): requests ECMP-spray over the aggs, responses
//     flow head→tail over dedicated chain links, only the tail enacts
//     filter verdicts. The client-side ToR degenerates to a plain router.
//
// Every cloning switch — the client ToR, or each replica — is wired by
// its own core::Controller, as the single rack's ToR is.
//
// Edge links run MultiRackExperiment::kHostLink, and ToR↔agg uplinks and
// the chain run kTrunkLink: both at 100 Gb/s, so the pod is not
// oversubscribed.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/router.hpp"
#include "core/controller.hpp"
#include "core/netclone_program.hpp"
#include "harness/chain_controller.hpp"
#include "harness/faults.hpp"
#include "harness/testbed.hpp"

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
  /// Timed fault plan. Targets resolve against fat-tree names: switches
  /// `tor1`/`tor2`../`agg0`.., links `tor1-agg0`/`agg0-agg1`/`tor2-s0`,
  /// servers `s<N>` (global id), racks `rack<N>`, and the managed chain
  /// pair `agg_fail`/`agg_rejoin` (kReplicated mode only). Installed at
  /// build time so fault firing shares the deterministic event order.
  FaultPlan faults{};
};

/// One built-and-runnable fat-tree pod; see Testbed for the lifecycle.
/// Switches are registered as `agg<N>`, `tor1` (the client ToR) and
/// `tor<N>` for server rack N - 2.
class MultiRackExperiment : public Testbed {
 public:
  explicit MultiRackExperiment(MultiRackConfig config);
  ~MultiRackExperiment() override;

  // -- fixed link and chain timing ----------------------------------------

  /// Edge links (host ↔ ToR).
  static constexpr phys::LinkParams kHostLink{};
  /// ToR ↔ agg uplinks and the agg↔agg chain links. The delay is longer
  /// than the edge default — cross-tier cables are — which also keeps
  /// same-instant arrival coincidences between tiers rare.
  static constexpr phys::LinkParams kTrunkLink{
      100e9, SimTime::nanoseconds(1700), 1024};
  /// agg_fail: delay between the chain splice and the reconcile marker.
  /// Must exceed the worst-case residual flight time of a response on a
  /// chain/trunk link (~10us) so the marker's snapshot supersedes every
  /// frame the splice orphaned.
  static constexpr SimTime kChainSyncDelay = SimTime::microseconds(50);
  /// agg_rejoin: delay before the rejoined replica re-enters the client
  /// ToR's ECMP spray set (the admit marker must have landed by then).
  static constexpr SimTime kChainReadmitDelay = SimTime::microseconds(50);

  // -- programs -----------------------------------------------------------

  /// The NetClone program at the client ToR (kOblivious mode only).
  [[nodiscard]] const core::NetCloneProgram& client_tor_program() const;
  [[nodiscard]] const core::NetCloneProgram& server_tor_program(
      std::size_t rack) const {
    return *server_tor_programs_.at(rack);
  }
  /// Aggregation router `agg` (kOblivious mode only).
  [[nodiscard]] const baselines::RouterProgram& agg_program(
      std::size_t agg = 0) const;
  /// Chain replica `agg` (kReplicated mode only).
  [[nodiscard]] const core::NetCloneProgram& agg_netclone_program(
      std::size_t agg = 0) const;

  // -- structure ----------------------------------------------------------

  [[nodiscard]] const MultiRackConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_aggs() const { return config_.num_aggs; }
  /// Fail-over controller (kReplicated mode only; null otherwise).
  [[nodiscard]] const ChainController* chain_controller() const {
    return chain_controller_.get();
  }

 private:
  void build();
  /// topology().connect() with the pod's per-link delay skew.
  phys::DuplexPorts connect_nodes(phys::Node& a, phys::Node& b,
                                  phys::LinkParams params);
  /// agg_fail/agg_rejoin need the replicated tier and an existing agg.
  void check_fault(const FaultEvent& event) const override;
  /// Expands agg_fail/agg_rejoin into the chain controller's timed steps.
  bool schedule_expanded_fault(const FaultEvent& event) override;
  /// rack_down/rack_up; agg_fail/agg_rejoin must ride the installed plan
  /// instead, since they expand into several timed events.
  void apply_fat_tree_fault(const FaultEvent& event) override;
  void add_switch_counters(ExperimentResult& result) const override;

  MultiRackConfig config_;
  pisa::SwitchDevice* client_tor_ = nullptr;
  std::vector<pisa::SwitchDevice*> aggs_;
  // kOblivious mode:
  std::shared_ptr<core::NetCloneProgram> client_tor_program_;
  std::vector<std::shared_ptr<baselines::RouterProgram>>
      agg_router_programs_;
  // kReplicated mode:
  std::shared_ptr<baselines::RouterProgram> client_router_program_;
  std::vector<std::shared_ptr<core::NetCloneProgram>> agg_netclone_programs_;
  // Both modes:
  std::vector<std::shared_ptr<core::NetCloneProgram>> server_tor_programs_;
  /// One control plane per cloning switch: the client ToR (kOblivious) or
  /// each replica, indexed like aggs_ (kReplicated).
  std::vector<core::Controller> controllers_;
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

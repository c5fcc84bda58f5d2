// The cluster lifecycle both harnesses share. Experiment (one rack) and
// MultiRackExperiment (a fat-tree pod) derive from Testbed and differ only
// in the topology they assemble and the programs they load.
//
// A Testbed owns the run's frame pool and event engine, the topology, and
// named registries of its links, switches, servers and clients. Faults,
// the run loop and the result collector work on those registries, so
// both harnesses resolve a fault target and report a run the same way.
// The topology hands the pool to every node, so however the engine is
// driven, the testbed's frames come from its own pool.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/netclone_program.hpp"
#include "harness/faults.hpp"
#include "host/client.hpp"
#include "host/server.hpp"
#include "phys/topology.hpp"
#include "pisa/switch_device.hpp"
#include "sim/simulator.hpp"
#include "wire/framebuf.hpp"

namespace netclone::harness {

/// The compared systems (§5.1.3 + §3.7).
enum class Scheme {
  kBaseline,           // random worker choice at the client, no cloning
  kCClone,             // client-based static cloning
  kLaedge,             // coordinator-based dynamic cloning
  kNetClone,           // this paper
  kNetCloneNoFilter,   // Fig. 15 ablation: cloning without response filtering
  kRackSched,          // in-switch JSQ, no cloning
  kNetCloneRackSched,  // §3.7 integration
};

[[nodiscard]] const char* scheme_name(Scheme scheme);

struct ExperimentResult {
  Scheme scheme{};
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double mean_us = 0.0;
  SimTime p50{};
  SimTime p99{};
  SimTime p999{};
  /// Decomposition of the measured samples (server-reported): where the
  /// tail comes from — queueing or execution.
  SimTime server_wait_p99{};
  SimTime server_service_p99{};
  std::uint64_t requests_sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t redundant_responses = 0;
  // Scheme internals (zero where not applicable):
  std::uint64_t cloned_requests = 0;
  std::uint64_t filtered_responses = 0;
  std::uint64_t dropped_stale_clones = 0;
  double empty_queue_fraction = 0.0;  // Fig. 13a signal
  pisa::SwitchStats switch_stats{};
};

/// Total worker capacity of a cluster in requests per second, given the
/// mean *effective* service time (intrinsic mean × jitter inflation).
[[nodiscard]] double cluster_capacity_rps(
    const std::vector<std::uint32_t>& server_workers,
    double mean_service_us);

/// One built-and-runnable cluster. The derived harness's constructor
/// wires the topology; run() executes warmup + measurement and returns
/// the result. The object stays inspectable afterwards (tests look at
/// program/server stats).
class Testbed {
 public:
  virtual ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Runs the whole schedule and collects metrics.
  [[nodiscard]] ExperimentResult run();

  /// Timeline mode (Fig. 16): starts the clients, runs for `total` and
  /// returns completed requests per `bin`. The installed fault plan fires
  /// on schedule during the walk.
  [[nodiscard]] std::vector<std::uint64_t> run_timeline(SimTime total,
                                                        SimTime bin);

  /// Schedules every entry of `plan` on the engine. The plan in
  /// the harness's config is installed at build time; this lets tests and
  /// benches add more afterwards. Throws CheckFailure, before scheduling
  /// anything, when an entry needs a component this topology lacks.
  void install_fault_plan(const FaultPlan& plan);

  /// Applies one fault right now. Targets resolve exactly against the
  /// registries: links and switches by harness name, servers as `s<N>`.
  /// Throws CheckFailure on anything else, and on a filter_stale whose
  /// switch runs no NetClone program or runs an aggregation replica.
  void apply_fault(const FaultEvent& event);

  /// Directed link by name (`c0-sw0`, `tor1-agg0`); nullptr when no such
  /// link exists.
  [[nodiscard]] phys::Link* link(const std::string& name) const;
  /// All directed links with their harness names, in build order.
  [[nodiscard]] const std::vector<std::pair<std::string, phys::Link*>>&
  links() const {
    return links_;
  }
  /// Every switch with its harness name, in build order.
  [[nodiscard]] const std::vector<std::pair<std::string, pisa::SwitchDevice*>>&
  switches() const {
    return switches_;
  }
  /// Every NetClone program with its switch's harness name: the rack's
  /// ToR, a pod's ToRs and its aggregation replicas.
  [[nodiscard]] const std::vector<
      std::pair<std::string, core::NetCloneProgram*>>&
  netclone_programs() const {
    return netclone_programs_;
  }
  [[nodiscard]] const std::vector<host::Server*>& servers() const {
    return servers_;
  }
  [[nodiscard]] const std::vector<host::Client*>& clients() const {
    return clients_;
  }

  /// The event engine, for tests/benches that inject events (failures,
  /// reconfigurations) into a run.
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  /// Engine telemetry: events executed so far (determinism fingerprint).
  [[nodiscard]] std::uint64_t executed_events() const;
  /// The balance sheet of this testbed's own frame pool, as the
  /// one-element list the auditor and the benchmark iterate. Its nodes
  /// allocate only from it, so testbeds on different threads (run_sweep's
  /// load points) never share a free list.
  [[nodiscard]] std::vector<wire::FramePool::Stats> frame_pool_stats() const;

 protected:
  /// What the shared lifecycle reads from a harness's config.
  struct Schedule {
    Scheme scheme{};           // labels the result
    double offered_rps = 0.0;  // labels the result
    SimTime measure{};         // the window completions count in
    SimTime end{};             // warmup + measure + drain
    std::uint64_t seed = 1;    // root RNG and link impairment streams
  };

  explicit Testbed(const Schedule& schedule);

  // -- building ------------------------------------------------------------

  [[nodiscard]] phys::Topology& topology() { return topology_; }
  /// The stream every node's RNG is forked from, in build order.
  [[nodiscard]] Rng& root_rng() { return root_rng_; }
  /// Registers both directions of a duplex link: `a-b` and `b-a`.
  void record_link(const std::string& a, const std::string& b,
                   const phys::DuplexPorts& ports);
  /// Registers a switch under its harness name.
  void record_switch(const std::string& name, pisa::SwitchDevice& device) {
    switches_.emplace_back(name, &device);
  }
  /// Registers the NetClone program switch `name` runs: filter_stale
  /// plants into it and the auditor checks its filter.
  void record_netclone(const std::string& name,
                       core::NetCloneProgram& program) {
    netclone_programs_.emplace_back(name, &program);
  }
  void record_server(host::Server& server) { servers_.push_back(&server); }
  void record_client(host::Client& client) { clients_.push_back(&client); }

  /// `<prefix><N>`, the harness name of an indexed node (`s3`, `agg1`,
  /// `tor2`).
  [[nodiscard]] static std::string indexed_name(std::string_view prefix,
                                                std::size_t index);
  /// The index N of `event.target` as `<prefix><N>`, below `count`;
  /// throws CheckFailure otherwise.
  [[nodiscard]] static std::size_t indexed_target(const FaultEvent& event,
                                                  std::string_view prefix,
                                                  std::size_t count);
  /// Rejects a response fragment count the response filter cannot carry.
  /// A filtering switch sends fragment k of a response through filter
  /// table (idx + k) % num_filter_tables, or through table idx alone
  /// without multi-packet tables. A fragment that lands in the table of
  /// an earlier fragment of its own response is taken for the slower
  /// duplicate and dropped, and the request never completes. A LAEDGE
  /// coordinator, which relays one response per request, is a filter
  /// without multi-packet tables. Throws CheckFailure with the reason.
  static void check_response_fragments(std::uint8_t response_fragments,
                                       bool multipacket_tables,
                                       std::size_t num_filter_tables);

  // -- what each topology decides ------------------------------------------

  /// Checks one plan entry before anything is scheduled; throws
  /// CheckFailure for an action this topology cannot carry out. The
  /// default rejects agg_fail, agg_rejoin, rack_down and rack_up, which
  /// need a fat tree's aggregation tier and racks.
  virtual void check_fault(const FaultEvent& event) const;
  /// Schedules an entry that expands into several timed events and
  /// returns true; a plain entry returns false and fires through
  /// apply_fault.
  virtual bool schedule_expanded_fault(const FaultEvent& /*event*/) {
    return false;
  }
  /// Applies agg_fail, agg_rejoin, rack_down or rack_up. The default
  /// throws CheckFailure, as check_fault's does.
  virtual void apply_fat_tree_fault(const FaultEvent& event);
  /// Adds the scheme's switch-side counters to a collected result:
  /// cloned and filtered totals, and the client-facing switch's stats.
  virtual void add_switch_counters(ExperimentResult& result) const = 0;

 private:
  void start_clients();
  [[nodiscard]] ExperimentResult collect() const;
  [[nodiscard]] pisa::SwitchDevice& target_switch(
      const std::string& name) const;
  [[nodiscard]] phys::Link& target_link(const std::string& name) const;
  /// Per-link impairment RNG seed, derived from the config seed and the
  /// link name without consuming root_rng_ draws.
  [[nodiscard]] std::uint64_t impairment_seed(const std::string& name) const;

  Schedule schedule_;
  // The pool outlives the engine, and the engine outlives the topology:
  // every frame the nodes and the pending events hold releases into the
  // pool, and links cancel their events in the engine when destroyed.
  wire::FramePool pool_;
  sim::Simulator sim_;
  phys::Topology topology_;
  Rng root_rng_;
  std::vector<std::pair<std::string, phys::Link*>> links_;
  std::vector<std::pair<std::string, pisa::SwitchDevice*>> switches_;
  std::vector<std::pair<std::string, core::NetCloneProgram*>>
      netclone_programs_;
  std::vector<host::Server*> servers_;
  std::vector<host::Client*> clients_;
  /// Every installed fault event; the scheduled events index into it.
  std::vector<FaultEvent> fault_events_;
};

}  // namespace netclone::harness

// Experiment harness: builds a rack (clients + ToR switch + workers, plus
// the LÆDGE coordinator when compared) on the shared Testbed lifecycle,
// drives an open-loop load, and collects the metrics the paper's figures
// plot.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/laedge.hpp"
#include "baselines/router.hpp"
#include "common/types.hpp"
#include "core/controller.hpp"
#include "core/netclone_program.hpp"
#include "harness/faults.hpp"
#include "harness/testbed.hpp"
#include "host/client.hpp"
#include "host/server.hpp"
#include "phys/topology.hpp"
#include "pisa/switch_device.hpp"
#include "sim/simulator.hpp"

namespace netclone::harness {

struct ClusterConfig {
  Scheme scheme = Scheme::kNetClone;
  std::size_t num_clients = 2;
  /// Worker threads per server; the vector length is the server count.
  std::vector<std::uint32_t> server_workers = {16, 16, 16, 16, 16, 16};
  /// Total offered load across all clients, requests per second.
  double offered_rps = 1e6;
  SimTime warmup = SimTime::milliseconds(10);
  SimTime measure = SimTime::milliseconds(60);
  /// Extra simulated time after senders stop, letting tails drain.
  SimTime drain = SimTime::milliseconds(30);
  std::uint64_t seed = 1;

  /// Workload (shared by all clients) and service (shared by all servers).
  std::shared_ptr<host::RequestFactory> factory;
  std::shared_ptr<host::ServiceModel> service;

  core::NetCloneConfig netclone{};

  host::ClientParams client_template{};
  host::ServerParams server_template{};

  /// Timed faults installed at build time and fired as engine events
  /// (deterministic relative to every other event).
  FaultPlan faults{};
};

/// One ToR rack (§5): the scheme's program on the switch, and the LÆDGE
/// coordinator when compared. See Testbed for the lifecycle; a switch
/// failure (Fig. 16) is a `switch_fail sw0` entry of the fault plan.
class Experiment : public Testbed {
 public:
  explicit Experiment(ClusterConfig config);
  ~Experiment() override;

  /// §3.6 server-failure handling, available for the schemes that run
  /// the NetClone program (NetClone, its no-filter ablation, RackSched
  /// and the integration): the control plane removes the worker from
  /// the candidate groups and every client learns the shrunken group
  /// count. The server process itself keeps draining whatever it already
  /// accepted. Requests already in flight with now-stale group ids are
  /// dropped at the switch — the brief reconfiguration loss a real
  /// deployment would also see.
  void remove_server(ServerId sid);

  /// The ToR, registered as switch `sw0`.
  [[nodiscard]] pisa::SwitchDevice& tor() { return *switch_; }
  [[nodiscard]] const pisa::SwitchDevice& tor() const { return *switch_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] const core::NetCloneProgram* netclone_program() const {
    return netclone_program_.get();
  }

 private:
  void build();
  void add_switch_counters(ExperimentResult& result) const override;

  ClusterConfig config_;
  pisa::SwitchDevice* switch_ = nullptr;
  baselines::LaedgeCoordinator* coordinator_ = nullptr;
  // Exactly one program is loaded: the NetClone program with its
  // controller when the switch steers, the router when the hosts do.
  std::shared_ptr<core::NetCloneProgram> netclone_program_;
  std::unique_ptr<core::Controller> controller_;
  std::shared_ptr<baselines::RouterProgram> router_;
};

}  // namespace netclone::harness

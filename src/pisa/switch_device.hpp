// The switch as a topology node: parser (a PacketView over the arriving
// frame) -> ingress pipeline, which rewrites header fields in place ->
// packet replication (multicast) / recirculation / egress.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "phys/node.hpp"
#include "pisa/pipeline.hpp"
#include "pisa/program.hpp"
#include "sim/simulator.hpp"

namespace netclone::pisa {

struct SwitchStats {
  std::uint64_t rx_frames = 0;
  std::uint64_t tx_frames = 0;
  std::uint64_t dropped_by_program = 0;
  /// Loopback copies that re-entered ingress (counted at re-entry).
  std::uint64_t recirculated = 0;
  std::uint64_t multicast_copies = 0;
  std::uint64_t parse_errors = 0;
  /// Frames discarded at ingress because the switch was down. Every
  /// rx_frame lands in exactly one of: parse_errors, dropped_by_program,
  /// dropped_while_failed, or egress_scheduled — the conservation
  /// equation the invariant auditor checks.
  std::uint64_t dropped_while_failed = 0;
  /// Pipeline passes that sent their packet to egress (one or more
  /// copies handed to ports at the end of the pass).
  std::uint64_t egress_scheduled = 0;
  /// Copies lost because the switch failed while they were still inside
  /// the pipeline, at or before their egress instant (taken back from the
  /// egress link, or a loopback copy). A lost copy counts here and not in
  /// tx_frames.
  std::uint64_t flushed_in_pipeline = 0;
  /// Mid-run register wipes injected via wipe_soft_state().
  std::uint64_t soft_state_wipes = 0;
};

class SwitchDevice : public phys::Node {
 public:
  /// A Tofino-class switch with a kStageCount-stage pipeline.
  SwitchDevice(sim::Simulator& sim, std::string name);

  /// Installs the ingress program. The program's resources must have been
  /// built against pipeline().
  void load_program(std::shared_ptr<SwitchProgram> program);

  [[nodiscard]] Pipeline& pipeline() { return pipeline_; }
  [[nodiscard]] const Pipeline& pipeline() const { return pipeline_; }

  /// Marks a port as loopback: frames egressing there re-enter ingress
  /// after the recirculation latency (§3.4 "Cloning in the switch"), one
  /// event per copy.
  void set_loopback_port(std::size_t port);

  /// Adds a port that exists on the ASIC but is not cabled; used to create
  /// the loopback port without a link.
  std::size_t add_internal_port();

  // -- packet replication engine (control plane) ---------------------------
  void configure_multicast_group(std::uint16_t group,
                                 std::vector<std::size_t> ports);

  // -- failure injection (§5.6.4) ------------------------------------------
  /// Takes the switch down: every frame is lost and all register (soft)
  /// state is wiped, as on a reboot.
  void fail();
  /// Brings the switch back. Match-action entries survive (control-plane
  /// state); registers restart zeroed.
  void recover();
  [[nodiscard]] bool failed() const { return failed_; }
  /// Soft-state fault: wipes all register memory mid-run while the
  /// switch keeps forwarding (models a partial reset / controller bug
  /// rather than a full reboot). Match-action entries survive.
  void wipe_soft_state();

  [[nodiscard]] const SwitchStats& stats() const { return stats_; }

  void handle_frame(std::size_t port, wire::FrameHandle frame) override;

 private:
  /// One pipeline pass: open a view on the frame, run the program, and
  /// hand each copy to its port ready one pipeline latency out.
  void process(std::size_t port, wire::FrameHandle frame, bool recirculated);
  /// Hands one shared frame handle to an output port, ready at `ready`.
  /// Every port of a multicast set receives a refcount bump of the same
  /// frame.
  void emit(std::size_t port, SimTime ready, wire::FrameHandle bytes);

  [[nodiscard]] bool is_loopback(std::size_t port) const {
    return port < loopback_ports_.size() && loopback_ports_[port];
  }

  sim::Simulator& sim_;
  Pipeline pipeline_;
  std::shared_ptr<SwitchProgram> program_;
  /// Dense per-port loopback flags (ports are small dense integers).
  std::vector<bool> loopback_ports_;
  FlatMap64<std::vector<std::size_t>> mcast_groups_;
  std::size_t internal_ports_ = 0;
  bool failed_ = false;
  /// The instant of every fail(), in order. A loopback copy carries the
  /// count at its pass; at re-entry, the first fail after the pass decides
  /// whether it was lost inside the pipeline.
  std::vector<SimTime> fail_times_;
  SwitchStats stats_;
};

}  // namespace netclone::pisa

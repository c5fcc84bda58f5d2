// NetChain-style fail-over and rejoin for the replicated aggregation
// tier (PAPERS.md: NetChain's failure handling, transplanted onto the
// fat-tree pod's chain of NetClonePrograms, one per agg).
//
// The data plane keeps running while the controller reshapes the chain:
//
//   * fail_replica(a): the switch crashes (everything in flight into it
//     dies); the controller splices the chain around the corpse — the
//     predecessor forwards to the successor, the tail role moves to the
//     predecessor when the tail died, the rack ToRs re-point the
//     response route when the head died — and the client ToR stops
//     ECMP-spraying requests at it. When a MIDDLE replica died, the
//     successor may have missed updates that perished inside the corpse
//     or on its links, so a reconcile marker injected at the predecessor
//     `MultiRackExperiment::kChainSyncDelay` later carries a snapshot cut
//     down the spliced chain: installs overwrite every downstream replica
//     with the predecessor's state, and the FIFO delta stream behind the
//     marker replays everything newer. Head/tail deaths need no reconcile —
//     survivors saw a prefix of the same stream and stay convergent.
//   * rejoin_replica(a): the switch recovers with zeroed soft state and
//     is appended at the chain END. The old tail fills an admit record
//     (tail snapshot) and adopts the rejoiner as its successor in the
//     marker's own pipeline pass, so the marker is the FIRST frame on
//     the new chain link and the delta stream rides behind it. The
//     rejoiner installs the snapshot, becomes the tail (verdict
//     authority moves atomically at the marker), and only after
//     `kChainReadmitDelay` does the client ToR spray requests at it
//     again.
//
// Determinism: every mutation runs from events the fault installer
// scheduled at install time, and sync-record ids are assigned in event
// order, so a same-seed run replays the identical sequence. Plans must
// space chain events at least `kChainSyncDelay` apart (the installer's
// contract); the controller CHECKs instead of silently mis-splicing
// when a plan violates that.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/netclone_program.hpp"
#include "pisa/switch_device.hpp"

namespace netclone::harness {

struct ChainReplica {
  pisa::SwitchDevice* device = nullptr;
  core::NetCloneProgram* program = nullptr;
};

class ChainController {
 public:
  /// `chain_ports[i][j]` is replica i's egress port toward replica j on
  /// their dedicated chain link (the full mesh the harness builds).
  /// `update_spray` re-installs the client ToR's ECMP member set (given
  /// live replica indices, ascending); `repoint_responses` re-points the
  /// rack ToRs' response route at a new head replica.
  ChainController(
      std::vector<ChainReplica> replicas,
      std::vector<std::vector<std::optional<std::size_t>>> chain_ports,
      std::shared_ptr<core::AggChainSyncHub> hub,
      std::function<void(const std::vector<std::size_t>&)> update_spray,
      std::function<void(std::size_t)> repoint_responses);

  // -- fault hooks (called from installer-scheduled events) ---------------

  /// Event at the fail instant: crash + splice + spray/route updates.
  void fail_replica(std::size_t replica);
  /// Event at fail + kChainSyncDelay: inject the reconcile
  /// marker at the recorded predecessor (no-op when superseded).
  void reconcile_after_fail(std::size_t replica);
  /// Event at the rejoin instant: recover the switch and append it to
  /// the chain as a pending admit.
  void rejoin_replica(std::size_t replica);
  /// Event at the same instant, scheduled after rejoin_replica: inject
  /// the admit marker at the old tail.
  void inject_admit_marker(std::size_t replica);
  /// Event at rejoin + kChainReadmitDelay: put the replica
  /// back into the ECMP spray set (no-op when superseded).
  void readmit_spray(std::size_t replica);

  // -- auditor / test queries ---------------------------------------------

  /// Chain members whose admit completed, in chain order.
  [[nodiscard]] std::vector<std::size_t> admitted_members() const;
  /// True when no reconcile marker is pending injection and every
  /// appended replica has finished its admit — the precondition for the
  /// auditor's digest-convergence check.
  [[nodiscard]] bool quiescent() const;
  [[nodiscard]] std::uint64_t structural_changes() const {
    return structural_changes_;
  }
  [[nodiscard]] std::uint64_t fails_of(std::size_t replica) const {
    return fails_.at(replica);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Position of `replica` in chain_, or kNone.
  [[nodiscard]] std::size_t position_of(std::size_t replica) const;
  /// Drops resolved pending admits, then CHECKs that no resync is still
  /// in flight — overlapping chain faults would mis-splice.
  void settle_and_check_no_overlap(const char* op);
  void inject_marker(std::size_t filler, std::uint32_t sync_id);

  std::vector<ChainReplica> replicas_;
  std::vector<std::vector<std::optional<std::size_t>>> chain_ports_;
  std::shared_ptr<core::AggChainSyncHub> hub_;
  std::function<void(const std::vector<std::size_t>&)> update_spray_;
  std::function<void(std::size_t)> repoint_responses_;
  /// Admitted + pending-admit members in chain order.
  std::vector<std::size_t> chain_;
  /// failed replica -> predecessor that will fill the reconcile marker.
  std::map<std::size_t, std::size_t> pending_reconciles_;
  /// rejoining replica -> its admit record's sync id.
  std::map<std::size_t, std::uint32_t> pending_admits_;
  std::vector<std::uint64_t> fails_;
  std::uint32_t next_sync_id_ = 1;
  std::uint64_t structural_changes_ = 0;
};

}  // namespace netclone::harness

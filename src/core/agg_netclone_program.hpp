// NetClone-aware aggregation tier with NetChain-style chain replication.
//
// The paper's multi-rack story (§3.7) keeps cloning at the client-side
// ToR: the aggregation layer is oblivious and candidate pairs are limited
// to what one ToR can see. This program moves the cloning decision into
// the aggregation tier so a candidate pair can span any two racks, and —
// because several aggs share the tier (ECMP from the client ToRs) —
// replicates the soft state the decision depends on with the chain
// scheme of NetChain (PAPERS.md):
//
//   * requests may arrive at ANY replica (ECMP). The receiving replica
//     stamps the shared tier SWITCH_ID, assigns the Lamport-style
//     client-tuple request id (replicated deciders cannot share a SEQ
//     register without coordination), and clones off its local StateT
//     replica. The read is relaxed: a stale replica only costs a missed
//     or wasted clone, never correctness.
//   * responses are routed by the rack ToRs to the chain HEAD and flow
//     head -> ... -> tail over dedicated chain links. Every replica
//     applies the identical deterministic StateT write and filter RMW in
//     chain order — state-machine replication, so all replicas converge
//     cell by cell. Only the TAIL enacts the filter verdict (drop the
//     slower duplicate / forward to the client); upstream replicas
//     always forward, keeping exactly-once a single switch's decision.
//
// Stage layout mirrors NetCloneProgram minus the SEQ register (stage 0
// is free — ids are client-tuple by construction).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/groups.hpp"
#include "core/netclone_program.hpp"
#include "pisa/program.hpp"
#include "pisa/resources.hpp"
#include "wire/ipv4.hpp"

namespace netclone::core {

/// Where this replica sits in the chain AT BUILD TIME. A single-agg tier
/// is a chain of length one: the replica is head and tail at once and
/// enacts its own verdicts locally. Fail-over mutates the live chain
/// through the program's set_chain_next()/set_chain_member() hooks; this
/// struct only seeds the initial shape.
struct AggChainRole {
  std::size_t replica_index = 0;
  std::size_t chain_length = 1;
  /// Egress port of the dedicated link to the next replica; required for
  /// every non-tail replica.
  std::optional<std::size_t> chain_next_port{};

  [[nodiscard]] bool is_head() const { return replica_index == 0; }
  [[nodiscard]] bool is_tail() const {
    return replica_index + 1 == chain_length;
  }
};

/// One chain resync operation, shared between the filler (the replica
/// that snapshots its soft state) and the installers downstream. The
/// marker packet carries only the sync id; the snapshot payload rides
/// out-of-band in the hub — the modeled control-plane channel (real
/// NetChain ships it over the network; we keep the CUT POINTS in band,
/// which is what correctness depends on, and the bytes out of band).
struct AggChainSyncRecord {
  std::uint32_t sync_id = 0;
  /// Admit markers only: the chain_next the filler adopts when it fills
  /// the record — the old tail starts forwarding toward the rejoiner.
  std::optional<std::size_t> filler_next_port{};
  /// Admit markers only: the replica that installs the snapshot, takes
  /// over the tail role, and consumes the marker.
  std::optional<std::size_t> admit_target{};
  bool filled = false;
  std::vector<std::uint16_t> state;
  std::vector<std::uint16_t> shadow;
  std::vector<std::vector<std::uint32_t>> filters;
};

/// Store of sync records, shared by the controller and every replica
/// program. Lookup is linear: a run carries a handful of records, never
/// thousands.
class AggChainSyncHub {
 public:
  AggChainSyncRecord& create(std::uint32_t sync_id) {
    AggChainSyncRecord record;
    record.sync_id = sync_id;
    return records_.emplace_back(std::move(record));
  }
  [[nodiscard]] AggChainSyncRecord* find(std::uint32_t sync_id) {
    for (auto& record : records_) {
      if (record.sync_id == sync_id) {
        return &record;
      }
    }
    return nullptr;
  }

 private:
  std::vector<AggChainSyncRecord> records_;
};

struct AggNetCloneStats {
  std::uint64_t requests = 0;
  std::uint64_t cloned_requests = 0;
  std::uint64_t recirculated_clones = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t fingerprints_stored = 0;
  /// Filter matches at this replica (every replica computes the verdict).
  std::uint64_t filter_hits = 0;
  /// Verdicts enacted: duplicates actually dropped. Tail (or solo) only.
  std::uint64_t filtered_responses = 0;
  /// Responses relayed to the next replica over the chain link.
  std::uint64_t chain_forwards = 0;
  /// Packets stamped by another tier/ToR — routed, not processed.
  std::uint64_t foreign_packets = 0;
  std::uint64_t missing_route_drops = 0;
  /// kChainSync markers this replica processed (fill, install, or relay).
  std::uint64_t chain_sync_markers = 0;
  /// Markers for which this replica was the filler (snapshotted its own
  /// soft state into the hub record).
  std::uint64_t chain_sync_snapshots_filled = 0;
  /// Snapshots this replica installed over its own tables.
  std::uint64_t chain_sync_installs = 0;
  /// Stale markers skipped by the generation guard (sync id not newer
  /// than the last installed one).
  std::uint64_t chain_sync_stale = 0;
  /// Markers consumed here (end of the marker's chain walk).
  std::uint64_t chain_sync_consumed = 0;
  /// Non-zero filter cells this replica adopted from installed snapshots
  /// (fingerprints it may later hit without having stored them itself —
  /// the auditor widens its hit bound by exactly this much).
  std::uint64_t chain_sync_fingerprints_adopted = 0;
  /// Responses that arrived while this replica was NOT an admitted chain
  /// member (stale in-flight traffic around a crash/rejoin) — dropped
  /// without touching soft state.
  std::uint64_t non_member_response_drops = 0;
};

class AggNetCloneProgram final : public pisa::SwitchProgram {
 public:
  /// `config.switch_id` is the tier-wide identity every replica shares
  /// (so rack ToRs treat tier-stamped packets as foreign). id_mode and
  /// the multipacket switches are ignored: the tier always derives
  /// client-tuple request ids.
  AggNetCloneProgram(pisa::Pipeline& pipeline, NetCloneConfig config,
                     AggChainRole role);

  // -- control plane ------------------------------------------------------

  /// Registers a worker: AddrT[sid] = ip, FwdT[ip] = the trunk toward the
  /// worker's rack, and the PRE group used when cloning toward it (must
  /// contain {rack trunk port, loopback port}).
  void add_server(ServerId sid, wire::Ipv4Address ip, std::size_t port,
                  std::uint16_t clone_mcast_group);
  void install_groups(const std::vector<GroupPair>& groups);
  /// Plain route (clients — via their rack trunk).
  void add_route(wire::Ipv4Address ip, std::size_t port);

  // -- chain fail-over control plane --------------------------------------

  /// Hands the replica the tier's shared sync-record store. Required
  /// before any kChainSync marker can be processed.
  void set_sync_hub(std::shared_ptr<AggChainSyncHub> hub) {
    sync_hub_ = std::move(hub);
  }
  /// Splices the live chain: nullopt makes this replica the tail (it
  /// starts enacting verdicts), a port makes it forward responses there.
  void set_chain_next(std::optional<std::size_t> port) {
    chain_next_ = port;
  }
  /// Membership flag: a crashed/not-yet-readmitted replica still routes
  /// requests (zeroed state just clones aggressively) but must not apply
  /// chain responses or enact verdicts.
  void set_chain_member(bool member) { chain_member_ = member; }

  [[nodiscard]] bool chain_member() const { return chain_member_; }
  [[nodiscard]] std::optional<std::size_t> chain_next() const {
    return chain_next_;
  }
  /// Live tail test — the verdict authority. Distinct from
  /// role().is_tail(), which is the build-time shape.
  [[nodiscard]] bool is_chain_tail() const {
    return chain_member_ && !chain_next_.has_value();
  }

  // -- data plane ---------------------------------------------------------

  void on_ingress(wire::Packet& pkt, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass) override;

  [[nodiscard]] const char* name() const override { return "AggNetClone"; }
  [[nodiscard]] const AggNetCloneStats& stats() const { return stats_; }
  [[nodiscard]] const NetCloneConfig& config() const { return config_; }
  [[nodiscard]] const AggChainRole& role() const { return role_; }

  /// Replica-convergence fingerprint: FNV-1a over every StateT cell and
  /// every filter-table cell. After the chain quiesces, all replicas must
  /// report the same value — the invariant the auditor enforces.
  [[nodiscard]] std::uint64_t soft_state_digest() const;
  [[nodiscard]] std::uint16_t peek_state(ServerId sid) const;
  [[nodiscard]] std::uint32_t peek_filter_slot(std::size_t table,
                                               std::size_t slot) const;
  /// Count of non-zero filter cells — the auditor's bounded-filter-table
  /// check on a rejoined replica.
  [[nodiscard]] std::uint64_t filter_occupancy() const;

 private:
  struct AddrEntry {
    wire::Ipv4Address ip{};
    std::uint16_t mcast_group = 0;
  };

  void handle_request(wire::Packet& pkt, pisa::PacketMetadata& md,
                      pisa::PipelinePass& pass);
  void handle_response(wire::Packet& pkt, pisa::PacketMetadata& md,
                       pisa::PipelinePass& pass);
  void handle_chain_sync(wire::Packet& pkt, pisa::PacketMetadata& md);
  void fill_sync_record(AggChainSyncRecord& record);
  void install_sync_record(const AggChainSyncRecord& record);
  void l3_forward(const wire::Packet& pkt, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass);

  NetCloneConfig config_;
  AggChainRole role_;

  pisa::ExactMatchTable<GroupPair> grp_table_;
  pisa::ExactMatchTable<AddrEntry> addr_table_;
  pisa::RegisterArray<std::uint16_t> state_table_;
  pisa::RegisterArray<std::uint16_t> shadow_table_;
  pisa::HashUnit hash_unit_;
  std::vector<std::unique_ptr<pisa::RegisterArray<std::uint32_t>>>
      filter_tables_;
  pisa::ExactMatchTable<std::size_t> fwd_table_;

  // Live chain shape (seeded from role_, mutated by the controller).
  std::optional<std::size_t> chain_next_;
  bool chain_member_ = true;
  /// Generation guard: the highest sync id already installed. A marker
  /// whose id is not newer is stale (a relay of an operation this replica
  /// already absorbed) and must not clobber fresher state.
  std::uint32_t last_sync_gen_ = 0;
  std::shared_ptr<AggChainSyncHub> sync_hub_;

  AggNetCloneStats stats_;
};

}  // namespace netclone::core

// The NetClone switch data plane (paper §3, Algorithm 1).
//
// Three custom modules run in the ingress pipeline, triggered only for
// NetClone packets (UDP port 9393):
//   * request cloning   — replicate a request to both candidate servers iff
//     both tracked states are idle (StateT + ShadowT);
//   * response filtering — drop the slower duplicate response using request
//     fingerprints in hash-indexed register arrays (FilterT);
//   * state tracking    — absorb the piggybacked queue length of every
//     response into StateT/ShadowT.
// Non-NetClone packets take the traditional L3 route through FwdT.
//
// One program runs on every cloning switch. Its soft state may be
// chain-replicated NetChain-style (PAPERS.md) across a tier of switches
// that share one SWITCH_ID: requests may arrive at any replica and clone
// off its local StateT; responses enter at the chain head and flow
// head -> ... -> tail, every replica applying the identical StateT write
// and filter RMW in chain order, so the replicas converge cell by cell.
// Only the tail enacts a filter verdict; upstream replicas relay every
// response. A ToR is the default chain of one: head and tail at once,
// always a member, enacting its own verdicts.
//
// RackSched [44] and the §3.7 integration run this same program, picked
// by its Steering policy. StateT holds the piggybacked queue lengths;
// Algorithm 1 only tests them against zero, while the other two policies
// also compare them: the integration sends a request it does not clone
// to the shorter of its two candidates' queues, and RackSched never
// clones and always joins the shorter queue. The candidate pair is the
// group the client drew, so RackSched's two samples are the client's
// uniform draw over all ordered pairs of distinct servers.
//
// Stage layout (compile-time, mirrors the 7-stage budget of §4.1). AddrT
// sits after the two state reads, because under the shorter-queue
// policies the address to look up depends on their comparison:
//
//   stage 0: SEQ       (request-id allocator, one register)
//   stage 1: GrpT      (group id -> ordered candidate pair)
//   stage 2: StateT    (server states, written on every response)
//   stage 3: ShadowT   (copy of StateT — the ASIC cannot read one register
//                       array twice in a pass, §3.4)
//   stage 4: AddrT     (server id -> IP address)
//   stage 5: HashT + FilterT[0..k)  (fingerprint filters, §3.5)
//   stage 6: FwdT      (dst IP -> egress port, the L2/L3 routing module)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/groups.hpp"
#include "pisa/program.hpp"
#include "pisa/resources.hpp"
#include "wire/ipv4.hpp"

namespace netclone::core {

/// How the switch assigns the REQ_ID (§3.7 "Protocol support").
enum class RequestIdMode {
  /// Default: the global SEQ register allocates a fresh id per request.
  kSwitchSequence,
  /// Lamport-style: REQ_ID is derived from (CLIENT_ID, CLIENT_SEQ), so a
  /// retransmission (TCP mode) and every fragment of a multi-packet
  /// request share one id.
  kClientTuple,
};

struct NetCloneConfig {
  /// Filter tables; the prototype uses two (§4.1). Client IDX values must
  /// be < this.
  std::size_t num_filter_tables = 2;
  /// Hash slots per filter table (§4.1: 2^17).
  std::size_t filter_slots = std::size_t{1} << 17;
  /// Maximum servers AddrT/StateT are sized for. GrpT holds every group
  /// that many servers can install, group_count(max_servers).
  std::size_t max_servers = 64;
  /// This ToR's identity for multi-rack deployments (§3.7); stamped into
  /// requests with SWITCH_ID == 0.
  std::uint8_t switch_id = 1;
  /// Ablation toggle (Fig. 15 disables filtering).
  bool enable_filtering = true;
  RequestIdMode id_mode = RequestIdMode::kSwitchSequence;
  /// Multi-packet message support (§3.7): a cloned-request table makes
  /// follow-up fragments of a cloned request clone regardless of the
  /// current server states, and response fragments are filtered through
  /// ordered filter tables. Requires id_mode == kClientTuple so that all
  /// fragments share one REQ_ID.
  bool enable_multipacket = false;
  /// Slots in the cloned-request table (hash-indexed, like FilterT).
  std::size_t cloned_req_slots = std::size_t{1} << 15;
};

/// How the switch steers a fresh read request between its group's two
/// candidates. A WREQ goes uncloned to the first candidate under every
/// policy (§5.5).
enum class Steering {
  /// Algorithm 1: clone when both candidates are idle, else send to the
  /// first candidate.
  kCloneOrFirst,
  /// §3.7 NetClone × RackSched integration: clone when both are idle,
  /// else send to the candidate with the shorter tracked queue, ties to
  /// the first.
  kCloneOrShorterQueue,
  /// RackSched [44]: never clone; send to the candidate with the shorter
  /// tracked queue, ties to the first.
  kShorterQueue,
};

/// Where this switch sits in its chain AT BUILD TIME. The default is a
/// chain of length one: the switch is head and tail at once and enacts
/// its own verdicts — every ToR. Fail-over mutates the live chain through
/// the program's set_chain_next()/set_chain_member() hooks; this struct
/// only seeds the initial shape.
struct AggChainRole {
  std::size_t replica_index = 0;
  std::size_t chain_length = 1;
  /// Egress port of the dedicated link to the next replica; required for
  /// every non-tail replica.
  std::optional<std::size_t> chain_next_port{};

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

struct NetCloneProgramStats {
  std::uint64_t requests = 0;
  std::uint64_t cloned_requests = 0;     // fresh requests that were cloned
  std::uint64_t recirculated_clones = 0; // clone copies seen back at ingress
  std::uint64_t responses = 0;
  std::uint64_t fingerprints_stored = 0;
  /// Filter matches at this switch. Every replica computes the verdict;
  /// on a chain of one each hit is enacted, so this equals
  /// filtered_responses.
  std::uint64_t filter_hits = 0;
  std::uint64_t filtered_responses = 0;  // slower duplicates dropped
  /// Responses relayed to the next replica over the chain link.
  std::uint64_t chain_forwards = 0;
  /// Packets stamped by another switch: routed, not processed (§3.7).
  std::uint64_t foreign_packets = 0;
  std::uint64_t missing_route_drops = 0;
  std::uint64_t write_requests = 0;       // forwarded uncloned (§5.5)
  std::uint64_t continuation_fragments = 0;  // multi-packet follow-ups
  std::uint64_t cloned_fragments = 0;     // follow-ups cloned via ClonedReqT
  /// Fault injection: fingerprints planted by inject_stale_filter_entry.
  /// The auditor's filtering invariant widens by this amount.
  std::uint64_t injected_stale_entries = 0;
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
  /// Markers this switch cannot act on — it holds no sync hub, or the hub
  /// holds no such record — dropped without touching a register. Wire
  /// input, not chain state: chaos_digest leaves it out.
  std::uint64_t unusable_sync_markers = 0;
};

/// The older name of the replicas' stats, still used by benchmark/.
using AggNetCloneStats = NetCloneProgramStats;

class NetCloneProgram final : public pisa::SwitchProgram {
 public:
  /// `role` places the switch in its chain; the default is a ToR's chain
  /// of one. Replicas of one tier share `config.switch_id`, so the rack
  /// ToRs treat tier-stamped packets as foreign. A chain longer than one
  /// needs RequestIdMode::kClientTuple: replicated deciders cannot share
  /// a SEQ register without coordination. `steering` picks the policy;
  /// the shorter-queue policies reject multi-packet support, whose
  /// fragments must all reach one server.
  NetCloneProgram(pisa::Pipeline& pipeline, NetCloneConfig config,
                  AggChainRole role = {},
                  Steering steering = Steering::kCloneOrFirst);

  // -- control plane --------------------------------------------------------

  /// Registers a worker: AddrT[sid] = ip, FwdT[ip] = port, and remembers
  /// the PRE multicast group id to use when cloning toward this server
  /// (the group must contain {server port, loopback port}).
  void add_server(ServerId sid, wire::Ipv4Address ip, std::size_t port,
                  std::uint16_t clone_mcast_group);

  /// Installs the candidate-pair groups (group id = vector index).
  void install_groups(const std::vector<GroupPair>& groups);

  /// Plain L3 route for non-worker endpoints (clients, coordinator).
  void add_route(wire::Ipv4Address ip, std::size_t port);

  /// Removes a failed worker from cloning decisions (§3.6): erases its
  /// address entry and the groups referencing it.
  void remove_server(ServerId sid);

  /// Fault injection: plants `req_id` as a fingerprint in filter table
  /// `table` at the slot the hash would pick — exactly the residue a
  /// lost response or a mid-run reboot can leave behind. The next
  /// response hashing there is wrongly filtered (§3.5's collision case),
  /// which the end-to-end retransmit path must absorb.
  void inject_stale_filter_entry(std::size_t table, std::uint32_t req_id);

  // -- chain fail-over control plane ----------------------------------------

  /// Hands the replica the tier's shared sync-record store. Without one,
  /// every kChainSync marker is dropped unprocessed.
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
  /// True on a replica of a replicated tier: it holds the tier's sync
  /// hub. A ToR holds none.
  [[nodiscard]] bool replicated() const { return sync_hub_ != nullptr; }

  // -- data plane -----------------------------------------------------------

  void on_ingress(wire::PacketView& pkt, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass) override;

  [[nodiscard]] const char* name() const override { return "NetClone"; }

  [[nodiscard]] const NetCloneProgramStats& stats() const { return stats_; }
  [[nodiscard]] const NetCloneConfig& config() const { return config_; }
  [[nodiscard]] const AggChainRole& role() const { return role_; }

  /// Test/diagnostic access to filter table cells.
  [[nodiscard]] std::uint32_t peek_filter_slot(std::size_t table,
                                               std::size_t slot) const;
  /// Test/diagnostic access to a tracked server state.
  [[nodiscard]] std::uint16_t peek_state(ServerId sid) const;
  /// Replica-convergence fingerprint: FNV-1a over every StateT/ShadowT
  /// cell and every filter-table cell. After the chain quiesces, all
  /// replicas must report the same value — the invariant the auditor
  /// enforces.
  [[nodiscard]] std::uint64_t soft_state_digest() const;
  /// Count of non-zero filter cells — the auditor's bounded-filter-table
  /// check on a rejoined replica.
  [[nodiscard]] std::uint64_t filter_occupancy() const;

  /// The hash a response with `req_id` indexes filter tables with.
  [[nodiscard]] static std::uint32_t filter_hash(std::uint32_t req_id,
                                                 std::size_t slots);

  /// The Lamport-style request id of RequestIdMode::kClientTuple.
  [[nodiscard]] static std::uint32_t client_tuple_id(
      std::uint16_t client_id, std::uint32_t client_seq);

 private:
  struct AddrEntry {
    wire::Ipv4Address ip{};
    std::uint16_t mcast_group = 0;
  };

  void handle_request(wire::PacketView& pkt, pisa::PacketMetadata& md,
                      pisa::PipelinePass& pass);
  void handle_continuation_fragment(wire::PacketView& pkt,
                                    pisa::PacketMetadata& md,
                                    pisa::PipelinePass& pass);
  void handle_response(wire::PacketView& pkt, pisa::PacketMetadata& md,
                       pisa::PipelinePass& pass);
  void handle_chain_sync(std::uint32_t sync_id, pisa::PacketMetadata& md);
  void fill_sync_record(AggChainSyncRecord& record);
  void install_sync_record(const AggChainSyncRecord& record);
  void l3_forward(const wire::PacketView& pkt, pisa::PacketMetadata& md,
                  pisa::PipelinePass& pass);
  void assign_request_id(wire::PacketView& pkt, pisa::PipelinePass& pass);

  NetCloneConfig config_;
  AggChainRole role_;
  Steering steering_;

  pisa::RegisterScalar<std::uint32_t> seq_;
  pisa::ExactMatchTable<GroupPair> grp_table_;
  pisa::RegisterArray<std::uint16_t> state_table_;
  pisa::RegisterArray<std::uint16_t> shadow_table_;
  pisa::ExactMatchTable<AddrEntry> addr_table_;
  pisa::HashUnit hash_unit_;
  std::vector<std::unique_ptr<pisa::RegisterArray<std::uint32_t>>>
      filter_tables_;
  /// §3.7 multi-packet: ids of cloned-but-unfinished requests, so every
  /// later fragment clones regardless of the tracked server states.
  /// Allocated only when config.enable_multipacket.
  std::unique_ptr<pisa::RegisterArray<std::uint32_t>> cloned_req_table_;
  pisa::ExactMatchTable<std::size_t> fwd_table_;

  // Live chain shape (seeded from role_, mutated by the controller).
  std::optional<std::size_t> chain_next_;
  bool chain_member_ = true;
  /// Generation guard: the highest sync id already installed. A marker
  /// whose id is not newer is stale (a relay of an operation this replica
  /// already absorbed) and must not clobber fresher state.
  std::uint32_t last_sync_gen_ = 0;
  std::shared_ptr<AggChainSyncHub> sync_hub_;

  NetCloneProgramStats stats_;
};

}  // namespace netclone::core

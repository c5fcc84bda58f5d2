// The NetClone header (paper §3.2, Figure 3).
//
// It sits between the UDP header and the application payload. The seven
// fields of the paper (TYPE, REQ_ID, GRP, SID, STATE, CLO, IDX) are all
// present; we additionally carry:
//   * SWITCH_ID  — the multi-rack deployment field of §3.7 (zero until the
//     client-side ToR stamps it; other ToRs then skip NetClone processing);
//   * CLIENT_ID / CLIENT_SEQ — the Lamport-style request identity of §3.7
//     ("Protocol support"), which lets clients match responses to requests
//     and keeps retransmissions from receiving fresh switch request IDs.
//
// STATE carries the server's request-queue length. NetClone proper only
// tests it against zero (empty queue == idle, §3.4); RackSched and the
// integration (§3.7) use the full value as the load signal.
#pragma once

#include <cstdint>

#include "wire/bytes.hpp"

namespace netclone::wire {

enum class MsgType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  /// A write request (§5.5): forwarded like a request but never cloned —
  /// write coordination belongs to the replication protocol.
  kWriteRequest = 3,
  /// Client-side cancellation of an outstanding duplicate (§2.2: the
  /// optional C-Clone cancel; the paper cites evidence it buys little —
  /// bench_ablation_cancel measures that claim). Identified by
  /// CLIENT_ID/CLIENT_SEQ; servers drop the matching queued request.
  kCancel = 4,
  /// In-band chain resync marker for the replicated aggregation tier
  /// (NetChain-style fail-over). Injected by the controller at one
  /// replica's ingress, relayed replica-to-replica over the chain links,
  /// and consumed inside the tier — it never reaches a ToR or host.
  /// REQ_ID carries the controller's sync-record id.
  kChainSync = 5,
};

/// REQ and WREQ: the message types a switch steers toward a worker.
[[nodiscard]] constexpr bool is_request(MsgType type) {
  return type == MsgType::kRequest || type == MsgType::kWriteRequest;
}

/// CLO field values (§3.2).
enum class CloneStatus : std::uint8_t {
  kNotCloned = 0,       // request was not replicated
  kClonedOriginal = 1,  // the original copy of a replicated request
  kClonedCopy = 2,      // the switch-generated duplicate
};

struct NetCloneHeader {
  static constexpr std::size_t kSize = 21;

  MsgType type = MsgType::kRequest;
  CloneStatus clo = CloneStatus::kNotCloned;
  std::uint16_t grp = 0;        // candidate-server group id
  std::uint32_t req_id = 0;     // switch-assigned sequence number
  std::uint8_t sid = 0;         // server id (response sender / clone target)
  std::uint16_t state = 0;      // piggybacked queue length (0 == idle)
  std::uint8_t idx = 0;         // filter-table index (client-chosen)
  std::uint8_t switch_id = 0;   // client-side ToR id, 0 == unstamped
  std::uint16_t client_id = 0;  // issuing client
  std::uint32_t client_seq = 0; // client-local sequence number
  /// Multi-packet messages (§3.7): fragment ordinal and total count.
  /// Single-packet messages — the paper's default regime — use 0 of 1.
  std::uint8_t frag_idx = 0;
  std::uint8_t frag_count = 1;

  friend bool operator==(const NetCloneHeader&,
                         const NetCloneHeader&) = default;

  // Inline: every frame a host writes, and the oracle, go through these.
  void serialize(ByteWriter& w) const { store(w.raw(kSize)); }
  /// Writes the kSize header bytes at `p`.
  void store(std::byte* p) const {
    store_u8(p, 0, static_cast<std::uint8_t>(type));
    store_u8(p, 1, static_cast<std::uint8_t>(clo));
    store_u16(p, 2, grp);
    store_u32(p, 4, req_id);
    store_u8(p, 8, sid);
    store_u16(p, 9, state);
    store_u8(p, 11, idx);
    store_u8(p, 12, switch_id);
    store_u16(p, 13, client_id);
    store_u32(p, 15, client_seq);
    store_u8(p, 19, frag_idx);
    store_u8(p, 20, frag_count);
  }
  [[nodiscard]] static NetCloneHeader parse(ByteReader& r) {
    const std::byte* p = r.raw(kSize);
    check(p);
    return load(p);
  }
  /// Throws CodecError unless the kSize bytes at `p` carry a known TYPE, a
  /// known CLO and a fragment ordinal below a non-zero count.
  static void check(const std::byte* p) {
    const std::uint8_t type = load_u8(p, 0);
    if (type < static_cast<std::uint8_t>(MsgType::kRequest) ||
        type > static_cast<std::uint8_t>(MsgType::kChainSync)) {
      throw CodecError{"bad NetClone TYPE"};
    }
    if (load_u8(p, 1) > 2) {
      throw CodecError{"bad NetClone CLO"};
    }
    const std::uint8_t frag_count = load_u8(p, 20);
    if (frag_count == 0 || load_u8(p, 19) >= frag_count) {
      throw CodecError{"bad NetClone fragment fields"};
    }
  }
  /// Loads the fields of a header check() accepted.
  [[nodiscard]] static NetCloneHeader load(const std::byte* p) {
    NetCloneHeader h;
    h.type = static_cast<MsgType>(load_u8(p, 0));
    h.clo = static_cast<CloneStatus>(load_u8(p, 1));
    h.grp = load_u16(p, 2);
    h.req_id = load_u32(p, 4);
    h.sid = load_u8(p, 8);
    h.state = load_u16(p, 9);
    h.idx = load_u8(p, 11);
    h.switch_id = load_u8(p, 12);
    h.client_id = load_u16(p, 13);
    h.client_seq = load_u32(p, 15);
    h.frag_idx = load_u8(p, 19);
    h.frag_count = load_u8(p, 20);
    return h;
  }

  [[nodiscard]] bool is_request() const { return wire::is_request(type); }
  [[nodiscard]] bool is_cancel() const { return type == MsgType::kCancel; }
  [[nodiscard]] bool is_chain_sync() const {
    return type == MsgType::kChainSync;
  }
  [[nodiscard]] bool is_write() const {
    return type == MsgType::kWriteRequest;
  }
  [[nodiscard]] bool is_response() const {
    return type == MsgType::kResponse;
  }
  [[nodiscard]] bool cloned() const {
    return clo != CloneStatus::kNotCloned;
  }
  [[nodiscard]] bool multi_packet() const { return frag_count > 1; }
  [[nodiscard]] bool last_fragment() const {
    return frag_idx + 1 >= frag_count;
  }
};

}  // namespace netclone::wire

// Whole-packet composition and parsing.
//
// A Packet is the parsed (struct) form of a frame: Ethernet + IPv4 + UDP +
// optional NetClone header + opaque application payload. Hosts and the
// switch model all work on Packet and serialize back to raw bytes at the
// wire boundary — mirroring the parser/deparser split of a PISA pipeline.
//
// Two serialization paths exist:
//   * serialize() — the legacy oracle: rebuilds the whole frame and
//     recomputes every length and checksum from scratch. Observation
//     boundaries (pcap, tests, parse-error injection) use this.
//   * serialize_pooled() — the fast path: a Packet parsed from a
//     FrameHandle stays "backed" by its source buffer; the deparser diffs
//     the current header fields against the backing bytes and patches only
//     the dirty ones in place, updating the IPv4 and UDP checksums
//     incrementally per RFC 1624. The payload is never re-touched, and
//     replication (multicast, recirculation) shares it by refcount.
// The two are byte-equivalent; tests/test_framebuf.cpp holds the property.
#pragma once

#include <optional>

#include "wire/bytes.hpp"
#include "wire/ethernet.hpp"
#include "wire/framebuf.hpp"
#include "wire/ipv4.hpp"
#include "wire/netclone_header.hpp"
#include "wire/udp.hpp"

namespace netclone::wire {

/// A payload serialized once into its own pooled buffer, shared by
/// refcount across every frame composed from it — the scatter-gather
/// tail of a multi-fragment response. The one's-complement sum of the
/// bytes is precomputed so each fragment's UDP checksum only has to
/// cover its freshly built header block.
struct SharedPayload {
  FrameHandle frame{};
  /// Folded RFC 1071 one's-complement sum of the bytes, as if the
  /// payload started at an even offset. serialize_sg() byte-swaps it
  /// when the payload lands at an odd offset in the UDP segment
  /// (RFC 1071 §2(B): swapping every byte pair swaps the sum).
  std::uint16_t folded_sum = 0;

  [[nodiscard]] static SharedPayload of(std::span<const std::byte> bytes);

  [[nodiscard]] std::size_t size() const { return frame.size(); }
  /// The bytes as a zero-copy PayloadRef view pinning the buffer.
  [[nodiscard]] PayloadRef ref() const {
    return frame ? PayloadRef{frame, frame.bytes()} : PayloadRef{};
  }
};

class Packet {
 public:
  EthernetHeader eth{};
  Ipv4Header ip{};
  UdpHeader udp{};
  std::optional<NetCloneHeader> netclone{};
  PayloadRef payload{};

  /// Parses a full frame into an unbacked packet (the payload is copied).
  /// Throws CodecError on malformed input. The NetClone header is parsed
  /// iff either UDP port equals kNetClonePort.
  [[nodiscard]] static Packet parse(std::span<const std::byte> frame);

  /// Parses a pooled frame into a backed packet: the handle is retained,
  /// the payload is a zero-copy view, and serialize_pooled() can patch the
  /// source bytes instead of rebuilding them. The one fallback is a split
  /// frame whose header boundary moved since the split: it is linearized
  /// and parsed by copy. (Named, not overloaded: a Frame converts
  /// implicitly to both span and FrameHandle.)
  [[nodiscard]] static Packet parse_backed(const FrameHandle& frame);

  /// Serializes to wire bytes, recomputing every length and checksum
  /// (IPv4 total_length + header checksum, UDP length + checksum).
  [[nodiscard]] Frame serialize() const;

  /// Serializes into a pooled frame. Backed packets with an untouched
  /// payload take the in-place patch path (copy-on-write when the buffer
  /// is shared); everything else is a full build into a pooled buffer.
  /// The returned handle shares bytes with this packet's backing, so
  /// emitting to N ports is N refcount bumps, not N frames.
  [[nodiscard]] FrameHandle serialize_pooled();

  /// Scatter-gather serialization: builds a fresh header block and
  /// composes it with `tail`'s shared buffer — the payload bytes are
  /// never copied, and emitting N fragments of one response costs N
  /// small header builds plus N refcount bumps on the tail. The packet's
  /// `payload` must hold the same bytes as `tail` (a view from
  /// tail.ref(), typically); the result is byte-identical to
  /// serialize().
  [[nodiscard]] FrameHandle serialize_sg(const SharedPayload& tail) const;

  [[nodiscard]] bool has_netclone() const { return netclone.has_value(); }

  /// True when this packet retains the buffer it was parsed from.
  [[nodiscard]] bool backed() const { return static_cast<bool>(backing_); }

  /// Mutable access that fails loudly instead of dereferencing empty state.
  [[nodiscard]] NetCloneHeader& nc();
  [[nodiscard]] const NetCloneHeader& nc() const;

  /// Total wire size in bytes once serialized.
  [[nodiscard]] std::size_t wire_size() const;

  /// Header-region length: everything before the payload.
  [[nodiscard]] std::size_t header_size() const {
    return EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize +
           (netclone ? NetCloneHeader::kSize : 0);
  }

 private:
  [[nodiscard]] FrameHandle build_pooled() const;
  /// Diff-and-patch the backing header region; false when the fast path
  /// does not apply (layout changed, foreign checksums, ...).
  [[nodiscard]] bool patch_backing();

  FrameHandle backing_{};
  std::uint16_t backed_header_len_ = 0;
};

/// Receive-path integrity check: verifies the IPv4 header checksum and
/// the UDP checksum (pseudo-header included) directly against the frame
/// bytes, without linearizing split (scatter-gather) frames. Returns
/// false when either checksum fails or the IP/UDP lengths disagree with
/// the frame size — the caller should drop and count the frame. Frames
/// that are not IPv4/UDP-shaped return true: they carry no checksum to
/// verify and the parser rejects them on its own.
[[nodiscard]] bool verify_frame_checksums(const FrameHandle& frame);

/// Convenience builder for a NetClone UDP packet between two endpoints.
[[nodiscard]] Packet make_netclone_packet(MacAddress src_mac,
                                          MacAddress dst_mac, Ipv4Address src,
                                          Ipv4Address dst,
                                          std::uint16_t src_port,
                                          const NetCloneHeader& nc,
                                          Frame payload);

}  // namespace netclone::wire

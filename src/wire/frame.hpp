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
//   * serialize_pooled() — the one build path for the data plane. A
//     Packet parsed from a FrameHandle stays "backed" by its source
//     buffer; the deparser diffs the current header fields against the
//     backing bytes and patches only the dirty ones in place, updating
//     the IPv4 and UDP checksums incrementally per RFC 1624 (a shared
//     frame is copied whole, from its own pool, before it is patched).
//     Anything else — a packet a host builds, or a backed one whose
//     layout changed — is built fresh into one contiguous pooled frame.
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
  /// source bytes instead of rebuilding them. (Named, not overloaded: a
  /// Frame converts implicitly to both span and FrameHandle.)
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
/// bytes, in one pass over the contiguous frame. Returns
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

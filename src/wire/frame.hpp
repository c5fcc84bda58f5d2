// Whole-packet composition: the byte oracle and the cold-path builder.
//
// A Packet is the struct form of a frame: Ethernet + IPv4 + UDP + optional
// NetClone header + opaque application payload. The data path does not
// work on it: switches and the LÆDGE coordinator rewrite frames in place
// through wire::PacketView (packet_view.hpp), and hosts write theirs
// straight into pooled buffers (udp_frame.hpp). Packet is
//   * the oracle — serialize() rebuilds a frame from scratch and parse()
//     reads one back. Observation boundaries (pcap, tests, parse-error
//     injection) use them, and the tests hold the view's in-place writes
//     and every frame a host writes byte-identical to them;
//   * a builder for code outside any topology — serialize_pooled() writes
//     serialize()'s bytes into one fresh frame of the process pool. No
//     simulated node calls it: nodes allocate from the pool their
//     topology hands them.
#pragma once

#include <optional>

#include "common/check.hpp"
#include "wire/bytes.hpp"
#include "wire/ethernet.hpp"
#include "wire/framebuf.hpp"
#include "wire/ipv4.hpp"
#include "wire/netclone_header.hpp"
#include "wire/packet_view.hpp"
#include "wire/udp.hpp"
#include "wire/udp_frame.hpp"

namespace netclone::wire {

class Packet {
 public:
  EthernetHeader eth{};
  Ipv4Header ip{};
  UdpHeader udp{};
  std::optional<NetCloneHeader> netclone{};
  Frame payload{};

  /// Parses a full frame (the payload is copied).
  /// Throws CodecError on malformed input. The NetClone header is parsed
  /// iff either UDP port equals kNetClonePort.
  [[nodiscard]] static Packet parse(std::span<const std::byte> frame);

  /// parse() of a pooled frame's bytes. (Named, not overloaded: a Frame
  /// converts implicitly to both span and FrameHandle.)
  [[nodiscard]] static Packet parse_backed(const FrameHandle& frame);

  /// Serializes to wire bytes, recomputing every length and checksum
  /// (IPv4 total_length + header checksum, UDP length + checksum).
  [[nodiscard]] Frame serialize() const;

  /// serialize(), into one fresh frame of the process pool.
  [[nodiscard]] FrameHandle serialize_pooled() const;

  [[nodiscard]] bool has_netclone() const { return netclone.has_value(); }

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
};

/// Convenience builder for a NetClone UDP packet between two endpoints.
[[nodiscard]] Packet make_netclone_packet(MacAddress src_mac,
                                          MacAddress dst_mac, Ipv4Address src,
                                          Ipv4Address dst,
                                          std::uint16_t src_port,
                                          const NetCloneHeader& nc,
                                          Frame payload);

}  // namespace netclone::wire

// UDP header. NetClone reserves a well-known destination port so the switch
// parser can branch to the NetClone pipeline (§3.2).
#pragma once

#include <cstdint>

#include "wire/bytes.hpp"
#include "wire/ipv4.hpp"

namespace netclone::wire {

/// The reserved L4 port that marks a packet as carrying a NetClone header.
inline constexpr std::uint16_t kNetClonePort = 9393;

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload
  std::uint16_t checksum = 0;

  // Inline: every frame a host builds, and the oracle, go through these.
  void serialize(ByteWriter& w) const {
    std::byte* p = w.raw(kSize);
    store_u16(p, 0, src_port);
    store_u16(p, 2, dst_port);
    store_u16(p, 4, length);
    store_u16(p, 6, checksum);
  }
  [[nodiscard]] static UdpHeader parse(ByteReader& r) {
    const std::byte* p = r.raw(kSize);
    UdpHeader h;
    h.src_port = load_u16(p, 0);
    h.dst_port = load_u16(p, 2);
    h.length = load_u16(p, 4);
    h.checksum = load_u16(p, 6);
    return h;
  }
};

/// Computes the UDP checksum over pseudo-header + UDP header + payload.
/// `udp_segment` must start at the UDP header; its checksum field bytes are
/// treated as zero by the caller writing them as zero before calling.
[[nodiscard]] std::uint16_t udp_checksum(Ipv4Address src, Ipv4Address dst,
                                         std::span<const std::byte>
                                             udp_segment);

}  // namespace netclone::wire

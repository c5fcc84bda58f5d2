// Ethernet II framing.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "wire/bytes.hpp"

namespace netclone::wire {

struct MacAddress {
  std::array<std::uint8_t, 6> octets{};

  auto operator<=>(const MacAddress&) const = default;

  /// Deterministic locally-administered address derived from a node id,
  /// e.g. node 7 -> 02:00:00:00:00:07.
  [[nodiscard]] static MacAddress from_node(std::uint32_t node_id);

  [[nodiscard]] static MacAddress broadcast();

  [[nodiscard]] std::string to_string() const;
};

enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
};

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;

  MacAddress dst{};
  MacAddress src{};
  EtherType ether_type = EtherType::kIpv4;

  // Inline: every frame a host builds, and the oracle, go through these.
  void serialize(ByteWriter& w) const {
    std::byte* p = w.raw(kSize);
    for (std::size_t i = 0; i < 6; ++i) {
      store_u8(p, i, dst.octets[i]);
      store_u8(p, 6 + i, src.octets[i]);
    }
    store_u16(p, 12, static_cast<std::uint16_t>(ether_type));
  }
  [[nodiscard]] static EthernetHeader parse(ByteReader& r) {
    const std::byte* p = r.raw(kSize);
    EthernetHeader h;
    for (std::size_t i = 0; i < 6; ++i) {
      h.dst.octets[i] = load_u8(p, i);
      h.src.octets[i] = load_u8(p, 6 + i);
    }
    h.ether_type = static_cast<EtherType>(load_u16(p, 12));
    return h;
  }
};

}  // namespace netclone::wire

// IPv4 header with real Internet-checksum math.
//
// The NetClone switch rewrites the destination IP of requests (AddrT) and so
// must incrementally fix the header checksum, as the P4 deparser does on
// hardware (wire::PacketView's setters); tests verify the rewritten packets
// still checksum clean.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "wire/bytes.hpp"

namespace netclone::wire {

struct Ipv4Address {
  std::uint32_t value = 0;  // host order; serialized big-endian

  auto operator<=>(const Ipv4Address&) const = default;

  [[nodiscard]] static constexpr Ipv4Address from_octets(std::uint8_t a,
                                                         std::uint8_t b,
                                                         std::uint8_t c,
                                                         std::uint8_t d) {
    return Ipv4Address{static_cast<std::uint32_t>(a) << 24 |
                       static_cast<std::uint32_t>(b) << 16 |
                       static_cast<std::uint32_t>(c) << 8 |
                       static_cast<std::uint32_t>(d)};
  }

  [[nodiscard]] std::string to_string() const;
};

enum class IpProto : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
};

struct Ipv4Header {
  static constexpr std::size_t kSize = 20;  // no options

  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  // header + payload
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  IpProto protocol = IpProto::kUdp;
  std::uint16_t header_checksum = 0;
  Ipv4Address src{};
  Ipv4Address dst{};

  /// Serializes with a freshly computed checksum (the stored field is
  /// ignored on write and updated to the computed value). Each byte is
  /// written once: the checksum is summed over the written header and
  /// stored in place.
  void serialize(ByteWriter& w);

  /// Writes the kSize header bytes at `p` with a zero checksum field, the
  /// form the checksum is summed over.
  void store(std::byte* p) const {
    store_u8(p, 0, 0x45);  // version 4, IHL 5
    store_u8(p, 1, dscp);
    store_u16(p, 2, total_length);
    store_u16(p, 4, identification);
    store_u16(p, 6, 0);  // flags + fragment offset: never fragmented here
    store_u8(p, 8, ttl);
    store_u8(p, 9, static_cast<std::uint8_t>(protocol));
    store_u16(p, 10, 0);  // checksum: serialize fills it in
    store_u32(p, 12, src.value);
    store_u32(p, 16, dst.value);
  }

  [[nodiscard]] static Ipv4Header parse(ByteReader& r) {
    const std::byte* p = r.raw(kSize);
    const std::uint8_t version_ihl = load_u8(p, 0);
    if (version_ihl != 0x45) {
      throw CodecError{"unsupported IPv4 version/IHL"};
    }
    Ipv4Header h;
    h.dscp = load_u8(p, 1);
    h.total_length = load_u16(p, 2);
    h.identification = load_u16(p, 4);
    // offsets 6-7: flags + fragment offset, always zero here
    h.ttl = load_u8(p, 8);
    h.protocol = static_cast<IpProto>(load_u8(p, 9));
    h.header_checksum = load_u16(p, 10);
    h.src.value = load_u32(p, 12);
    h.dst.value = load_u32(p, 16);
    return h;
  }

  /// Computes the RFC 1071 checksum of this header (checksum field as 0).
  [[nodiscard]] std::uint16_t compute_checksum() const;

  /// True if the stored checksum matches the header contents.
  [[nodiscard]] bool checksum_valid() const;
};

/// One's-complement sum fold used by IPv4/UDP checksums: adds the 16-bit
/// big-endian words of `data` (a trailing odd byte zero-padded) to
/// `initial_sum`, folds, and complements.
[[nodiscard]] std::uint16_t internet_checksum(
    std::span<const std::byte> data, std::uint32_t initial_sum = 0);

}  // namespace netclone::wire

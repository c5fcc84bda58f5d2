// Hash primitives mirroring what a Tofino-class switch ASIC provides.
//
// The hardware exposes CRC-based hash units; the filter tables in the
// NetClone data plane index with CRC32 over the request ID (§3.5). We
// implement CRC32 (IEEE, reflected) plus FNV-1a for host-side (non-ASIC)
// hashing such as the KV store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace netclone {

/// CRC32 (IEEE 802.3 polynomial, reflected, init 0xFFFFFFFF, final XOR).
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data);
[[nodiscard]] std::uint32_t crc32_u32(std::uint32_t value);

/// FNV-1a 64-bit, for host-side hash tables.
inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ULL;
[[nodiscard]] std::uint64_t fnv1a(std::string_view data);
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::byte> data);

/// A running FNV-1a 64-bit digest over 64-bit values, each folded as its
/// 8 bytes, least significant first (the run digests and a switch's
/// soft-state digest).
struct Fnv1aFold {
  std::uint64_t digest = kFnv1aOffsetBasis;

  constexpr void operator()(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      digest ^= (value >> shift) & 0xFFU;
      digest *= kFnv1aPrime;
    }
  }
};

/// Fibonacci/multiplicative finalizer used to spread sequential IDs.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace netclone

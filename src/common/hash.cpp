#include "common/hash.hpp"

#include <array>

namespace netclone {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kCrc32Table = make_crc32_table();

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const std::byte b : data) {
    crc = kCrc32Table[(crc ^ static_cast<std::uint32_t>(b)) & 0xFFU] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::uint32_t crc32_u32(std::uint32_t value) {
  std::array<std::byte, 4> buf{};
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>((value >> (8 * i)) & 0xFFU);
  }
  return crc32(buf);
}

std::uint32_t crc32_u64(std::uint64_t value) {
  std::array<std::byte, 8> buf{};
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>((value >> (8 * i)) & 0xFFU);
  }
  return crc32(buf);
}

std::uint16_t crc16(std::span<const std::byte> data) {
  std::uint16_t crc = 0xFFFFU;
  for (const std::byte b : data) {
    crc = static_cast<std::uint16_t>(crc ^
                                     (static_cast<std::uint16_t>(b) << 8));
    for (int bit = 0; bit < 8; ++bit) {
      // Widened before the shift: `crc << 1` would be an int, and
      // `^ 0x1021U` then a sign conversion.
      const unsigned shifted = static_cast<unsigned>(crc) << 1;
      crc = static_cast<std::uint16_t>((crc & 0x8000U) != 0
                                           ? shifted ^ 0x1021U
                                           : shifted);
    }
  }
  return crc;
}

std::uint64_t fnv1a(std::span<const std::byte> data) {
  std::uint64_t h = kFnv1aOffsetBasis;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= kFnv1aPrime;
  }
  return h;
}

std::uint64_t fnv1a(std::string_view data) {
  return fnv1a(std::as_bytes(std::span{data.data(), data.size()}));
}

}  // namespace netclone

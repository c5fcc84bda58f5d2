#include "wire/ipv4.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace netclone::wire {

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value >> 24) & 0xFFU,
                (value >> 16) & 0xFFU, (value >> 8) & 0xFFU, value & 0xFFU);
  return buf;
}

namespace {

/// The 64-bit big-endian word at `p`.
std::uint64_t load_be64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// A 64-bit word's two 32-bit halves added. Each half is congruent to the
/// sum of its two 16-bit words modulo 0xFFFF (2^16 is 1 there), and the
/// sum is zero only when the word is.
std::uint64_t halves(std::uint64_t word) {
  return (word >> 32) + (word & 0xFFFFFFFFU);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::byte> data,
                                std::uint32_t initial_sum) {
  // Summed eight bytes at a time, then the last four, two and one. Every
  // addend starts at an even offset and is congruent modulo 0xFFFF to the
  // sum of its 16-bit words, an odd trailing byte being the high byte of
  // its word (RFC 1071). The accumulator takes addends below 2^33, so it
  // cannot overflow, and the fold below reduces it modulo 0xFFFF to what
  // the sum of 16-bit words folds to: both are zero exactly when every
  // addend is.
  std::uint64_t sum = initial_sum;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    sum += halves(load_be64(p));
  }
  if (n >= 4) {
    sum += load_u32(p, 0);
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    sum += load_u16(p, 0);
    p += 2;
    n -= 2;
  }
  if (n != 0) {
    sum += static_cast<std::uint32_t>(load_u8(p, 0)) << 8;
  }
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFFU) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFFU);
}

std::uint16_t Ipv4Header::compute_checksum() const {
  std::array<std::byte, kSize> buf;
  store(buf.data());
  return internet_checksum(buf);
}

bool Ipv4Header::checksum_valid() const {
  return compute_checksum() == header_checksum;
}

void Ipv4Header::serialize(ByteWriter& w) {
  std::byte* p = w.raw(kSize);
  store(p);
  header_checksum = internet_checksum({p, kSize});
  store_u16(p, 10, header_checksum);
}

}  // namespace netclone::wire

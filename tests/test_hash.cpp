#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <string_view>

namespace netclone {
namespace {

std::span<const std::byte> bytes_of(std::string_view s) {
  return std::as_bytes(std::span{s.data(), s.size()});
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926U);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0x00000000U); }

TEST(Crc32, SingleByte) {
  // CRC32 of "a".
  EXPECT_EQ(crc32(bytes_of("a")), 0xE8B7BE43U);
}

TEST(Crc32, U32MatchesLittleEndianBytes) {
  const std::uint32_t v = 0x12345678U;
  std::array<std::byte, 4> buf{std::byte{0x78}, std::byte{0x56},
                               std::byte{0x34}, std::byte{0x12}};
  EXPECT_EQ(crc32_u32(v), crc32(buf));
}

TEST(Crc32, SequentialIdsSpread) {
  // Filter tables index with CRC32(req_id) % slots; sequential ids must not
  // collapse onto a few slots.
  constexpr std::uint32_t kSlots = 1024;
  std::set<std::uint32_t> slots;
  for (std::uint32_t id = 1; id <= 512; ++id) {
    slots.insert(crc32_u32(id) % kSlots);
  }
  EXPECT_GT(slots.size(), 350U);  // low collision count over 512 draws
}

TEST(Fnv1a, KnownVectors) {
  EXPECT_EQ(fnv1a(std::string_view{""}), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a(std::string_view{"a"}), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a(std::string_view{"foobar"}), 0x85944171F73967E8ULL);
}

TEST(Fnv1a, SpanAndStringViewAgree) {
  const std::string_view s = "netclone";
  EXPECT_EQ(fnv1a(s), fnv1a(bytes_of(s)));
}

TEST(Fnv1a, FoldMatchesLittleEndianBytes) {
  // Folding values one after another hashes their bytes, least
  // significant first, as one FNV-1a stream.
  Fnv1aFold fold;
  EXPECT_EQ(fold.digest, fnv1a(std::string_view{""}));
  fold(0x0102030405060708ULL);
  fold(0xA0ULL);
  const std::array<std::byte, 16> buf{
      std::byte{0x08}, std::byte{0x07}, std::byte{0x06}, std::byte{0x05},
      std::byte{0x04}, std::byte{0x03}, std::byte{0x02}, std::byte{0x01},
      std::byte{0xA0}, std::byte{0x00}, std::byte{0x00}, std::byte{0x00},
      std::byte{0x00}, std::byte{0x00}, std::byte{0x00}, std::byte{0x00}};
  EXPECT_EQ(fold.digest, fnv1a(buf));
}

TEST(Mix64, BijectiveOnSamples) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    outputs.insert(mix64(i));
  }
  EXPECT_EQ(outputs.size(), 10000U);
}

TEST(Mix64, AvalanchesLowBits) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  for (std::uint64_t i = 0; i < 256; ++i) {
    total_flips += std::popcount(mix64(i) ^ mix64(i ^ 1ULL));
  }
  const double avg = total_flips / 256.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

}  // namespace
}  // namespace netclone

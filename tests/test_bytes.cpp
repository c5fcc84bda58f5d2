#include "wire/bytes.hpp"

#include <array>
#include <span>

#include <gtest/gtest.h>

namespace netclone::wire {
namespace {

TEST(ByteWriter, BigEndianLayout) {
  Frame f;
  ByteWriter w{f};
  w.u16(0x1234);
  w.u32(0xAABBCCDD);
  ASSERT_EQ(f.size(), 6U);
  EXPECT_EQ(f[0], std::byte{0x12});
  EXPECT_EQ(f[1], std::byte{0x34});
  EXPECT_EQ(f[2], std::byte{0xAA});
  EXPECT_EQ(f[5], std::byte{0xDD});
}

TEST(ByteCodec, RoundTripAllWidths) {
  Frame f;
  ByteWriter w{f};
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0x01234567);
  w.u64(0x89ABCDEF01234567ULL);
  w.i64(-42);

  ByteReader r{f};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0x01234567U);
  EXPECT_EQ(r.u64(), 0x89ABCDEF01234567ULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.remaining(), 0U);
}

TEST(ByteReader, UnderrunThrows) {
  Frame f;
  ByteWriter w{f};
  w.u16(7);
  ByteReader r{f};
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_THROW((void)r.u8(), CodecError);
}

TEST(ByteReader, SkipAndOffset) {
  Frame f;
  ByteWriter w{f};
  w.u32(0xDEADBEEF);
  ByteReader r{f};
  r.skip(2);
  EXPECT_EQ(r.offset(), 2U);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_THROW((void)r.skip(1), CodecError);
}

TEST(ByteReader, BytesCopiesExactly) {
  Frame f;
  ByteWriter w{f};
  w.u8(1);
  w.u8(2);
  w.u8(3);
  ByteReader r{f};
  std::array<std::byte, 2> out{};
  r.bytes(out);
  EXPECT_EQ(out[0], std::byte{1});
  EXPECT_EQ(out[1], std::byte{2});
  EXPECT_EQ(r.remaining(), 1U);
}

TEST(ByteReader, RestReturnsUnread) {
  Frame f;
  ByteWriter w{f};
  w.u32(0x01020304);
  ByteReader r{f};
  (void)r.u8();
  const auto rest = r.rest();
  ASSERT_EQ(rest.size(), 3U);
  EXPECT_EQ(rest[0], std::byte{2});
}

TEST(ByteWriter, ZerosAndBytes) {
  Frame f;
  ByteWriter w{f};
  w.zeros(3);
  const std::array<std::byte, 2> src{std::byte{9}, std::byte{8}};
  w.bytes(src);
  ASSERT_EQ(f.size(), 5U);
  EXPECT_EQ(f[2], std::byte{0});
  EXPECT_EQ(f[3], std::byte{9});
}

TEST(ByteCodec, FixedBoundThrowsBeforeMoving) {
  // Each width, started one byte short of room, throws CodecError without
  // writing or consuming a part of itself.
  for (const std::size_t width : {1U, 2U, 4U, 8U}) {
    SCOPED_TRACE(width);
    std::array<std::byte, 16> buf;
    buf.fill(std::byte{0xEE});
    const std::size_t start = buf.size() - (width - 1);

    ByteWriter w{std::span<std::byte>{buf}};
    w.zeros(start);
    EXPECT_THROW(
        {
          switch (width) {
            case 1: w.u8(0x11); break;
            case 2: w.u16(0x1122); break;
            case 4: w.u32(0x11223344U); break;
            default: w.u64(0x1122334455667788ULL); break;
          }
        },
        CodecError);
    EXPECT_EQ(w.written(), start);
    for (std::size_t i = start; i < buf.size(); ++i) {
      EXPECT_EQ(buf[i], std::byte{0xEE}) << "byte " << i;
    }

    ByteReader r{buf};
    r.skip(start);
    EXPECT_THROW(
        {
          switch (width) {
            case 1: (void)r.u8(); break;
            case 2: (void)r.u16(); break;
            case 4: (void)r.u32(); break;
            default: (void)r.u64(); break;
          }
        },
        CodecError);
    EXPECT_EQ(r.offset(), start);
    EXPECT_EQ(r.remaining(), width - 1);
  }
}

TEST(PokePeek, RoundTrip) {
  Frame f(4, std::byte{0});
  poke_u16(f, 1, 0xBEEF);
  EXPECT_EQ(peek_u16(f, 1), 0xBEEF);
  EXPECT_THROW((void)poke_u16(f, 3, 1), CodecError);
  EXPECT_THROW((void)peek_u16(f, 3), CodecError);
}

}  // namespace
}  // namespace netclone::wire

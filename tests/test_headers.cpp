#include <gtest/gtest.h>

#include <span>

#include "common/rng.hpp"
#include "wire/ethernet.hpp"
#include "wire/ipv4.hpp"
#include "wire/netclone_header.hpp"
#include "wire/udp.hpp"

namespace netclone::wire {
namespace {

TEST(Mac, FromNodeIsDeterministicAndLocal) {
  const MacAddress a = MacAddress::from_node(7);
  EXPECT_EQ(a.octets[0], 0x02);  // locally administered
  EXPECT_EQ(a.octets[5], 7);
  EXPECT_EQ(a, MacAddress::from_node(7));
  EXPECT_NE(a, MacAddress::from_node(8));
  EXPECT_EQ(a.to_string(), "02:00:00:00:00:07");
}

TEST(Ethernet, RoundTrip) {
  EthernetHeader h;
  h.dst = MacAddress::from_node(1);
  h.src = MacAddress::from_node(2);
  h.ether_type = EtherType::kIpv4;
  Frame f;
  ByteWriter w{f};
  h.serialize(w);
  ASSERT_EQ(f.size(), EthernetHeader::kSize);
  ByteReader r{f};
  const EthernetHeader parsed = EthernetHeader::parse(r);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.ether_type, EtherType::kIpv4);
}

TEST(Ipv4Address, OctetsAndToString) {
  const auto a = Ipv4Address::from_octets(10, 0, 1, 101);
  EXPECT_EQ(a.value, 0x0A000165U);
  EXPECT_EQ(a.to_string(), "10.0.1.101");
}

TEST(Ipv4, RoundTripWithValidChecksum) {
  Ipv4Header h;
  h.total_length = 48;
  h.identification = 0x1234;
  h.ttl = 63;
  h.protocol = IpProto::kUdp;
  h.src = Ipv4Address::from_octets(10, 0, 0, 1);
  h.dst = Ipv4Address::from_octets(10, 0, 1, 101);
  Frame f;
  ByteWriter w{f};
  h.serialize(w);
  ASSERT_EQ(f.size(), Ipv4Header::kSize);

  ByteReader r{f};
  const Ipv4Header parsed = Ipv4Header::parse(r);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
  EXPECT_EQ(parsed.total_length, 48);
  EXPECT_EQ(parsed.ttl, 63);
  EXPECT_TRUE(parsed.checksum_valid());
}

TEST(Ipv4, CorruptionBreaksChecksum) {
  Ipv4Header h;
  h.total_length = 40;
  h.src = Ipv4Address::from_octets(1, 2, 3, 4);
  h.dst = Ipv4Address::from_octets(5, 6, 7, 8);
  Frame f;
  ByteWriter w{f};
  h.serialize(w);
  f[16] ^= std::byte{0xFF};  // flip a dst-address byte
  ByteReader r{f};
  const Ipv4Header parsed = Ipv4Header::parse(r);
  EXPECT_FALSE(parsed.checksum_valid());
}

TEST(Ipv4, RejectsOptionsAndWrongVersion) {
  Frame f(20, std::byte{0});
  f[0] = std::byte{0x46};  // IHL 6 (has options)
  ByteReader r{f};
  EXPECT_THROW((void)Ipv4Header::parse(r), CodecError);
}

TEST(InternetChecksum, KnownVector) {
  // Classic RFC 1071 worked example.
  const std::array<std::byte, 8> data{
      std::byte{0x00}, std::byte{0x01}, std::byte{0xf2}, std::byte{0x03},
      std::byte{0xf4}, std::byte{0xf5}, std::byte{0xf6}, std::byte{0xf7}};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xddf2));
}

/// RFC 1071 as first written here: big-endian byte pairs into a 32-bit
/// sum, an odd trailing byte zero-padded, folded and complemented.
std::uint16_t byte_pair_checksum(std::span<const std::byte> data,
                                 std::uint32_t initial_sum) {
  std::uint32_t sum = initial_sum;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(
        static_cast<std::uint16_t>(data[i]) << 8 |
        static_cast<std::uint16_t>(data[i + 1]));
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(static_cast<std::uint16_t>(data[i])
                                      << 8);
  }
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFFU) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFFU);
}

// The word-wise sum agrees with the byte-pair reference on every length
// from 0 to 160 (odd ones included), on random, all-0x00 and all-0xFF
// data, from zero and non-zero initial sums. Initial sums stay below
// 2^24, where the reference's 32-bit accumulator cannot wrap; callers
// pass pseudo-header sums below 2^19.
TEST(InternetChecksum, WordWiseMatchesBytePairReference) {
  Rng rng{0xC5C5};
  const std::uint32_t fixed_initials[] = {0,       1,       0xFFFF,
                                          0x10000, 0x1FFFE, 0xFFFFFF};
  for (std::size_t len = 0; len <= 160; ++len) {
    Frame random(len);
    for (std::byte& b : random) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    const Frame zeros(len, std::byte{0x00});
    const Frame ones(len, std::byte{0xFF});
    for (const Frame* data :
         std::initializer_list<const Frame*>{&random, &zeros, &ones}) {
      for (const std::uint32_t initial : fixed_initials) {
        ASSERT_EQ(internet_checksum(*data, initial),
                  byte_pair_checksum(*data, initial))
            << "length " << len << " initial " << initial;
      }
      for (int draw = 0; draw < 8; ++draw) {
        const auto initial =
            static_cast<std::uint32_t>(rng.next_below(1U << 24));
        ASSERT_EQ(internet_checksum(*data, initial),
                  byte_pair_checksum(*data, initial))
            << "length " << len << " initial " << initial;
      }
    }
    // Every offset of a span, so no alignment is assumed.
    for (std::size_t off = 1; off < 8 && off <= len; ++off) {
      const std::span<const std::byte> tail =
          std::span<const std::byte>{random}.subspan(off);
      ASSERT_EQ(internet_checksum(tail, 0x1234),
                byte_pair_checksum(tail, 0x1234))
          << "length " << len << " offset " << off;
    }
  }
}

TEST(Udp, RoundTrip) {
  UdpHeader h;
  h.src_port = 40001;
  h.dst_port = kNetClonePort;
  h.length = 27;
  h.checksum = 0xABCD;
  Frame f;
  ByteWriter w{f};
  h.serialize(w);
  ASSERT_EQ(f.size(), UdpHeader::kSize);
  ByteReader r{f};
  const UdpHeader parsed = UdpHeader::parse(r);
  EXPECT_EQ(parsed.src_port, 40001);
  EXPECT_EQ(parsed.dst_port, kNetClonePort);
  EXPECT_EQ(parsed.length, 27);
  EXPECT_EQ(parsed.checksum, 0xABCD);
}

TEST(Udp, ChecksumNeverZero) {
  // RFC 768: a computed 0 must be sent as 0xFFFF. Find some segment whose
  // checksum computes to zero by construction: all-zero pseudo data gives
  // sum 0 -> ~0 = 0xFFFF anyway, so just assert non-zero over samples.
  for (std::uint8_t i = 0; i < 200; ++i) {
    Frame seg(8 + i, std::byte{i});
    const std::uint16_t c =
        udp_checksum(Ipv4Address::from_octets(10, 0, 0, 1),
                     Ipv4Address::from_octets(10, 0, 0, 2), seg);
    EXPECT_NE(c, 0);
  }
}

TEST(NetCloneHeader, RoundTripAllFields) {
  NetCloneHeader h;
  h.type = MsgType::kResponse;
  h.clo = CloneStatus::kClonedCopy;
  h.grp = 0xBEEF;
  h.req_id = 0x12345678;
  h.sid = 5;
  h.state = 321;
  h.idx = 1;
  h.switch_id = 7;
  h.client_id = 42;
  h.client_seq = 0xCAFEBABE;

  Frame f;
  ByteWriter w{f};
  h.serialize(w);
  ASSERT_EQ(f.size(), NetCloneHeader::kSize);

  ByteReader r{f};
  const NetCloneHeader parsed = NetCloneHeader::parse(r);
  EXPECT_EQ(parsed.type, MsgType::kResponse);
  EXPECT_EQ(parsed.clo, CloneStatus::kClonedCopy);
  EXPECT_EQ(parsed.grp, 0xBEEF);
  EXPECT_EQ(parsed.req_id, 0x12345678U);
  EXPECT_EQ(parsed.sid, 5);
  EXPECT_EQ(parsed.state, 321);
  EXPECT_EQ(parsed.idx, 1);
  EXPECT_EQ(parsed.switch_id, 7);
  EXPECT_EQ(parsed.client_id, 42);
  EXPECT_EQ(parsed.client_seq, 0xCAFEBABEU);
}

TEST(NetCloneHeader, RejectsBadType) {
  Frame f(NetCloneHeader::kSize, std::byte{0});
  f[0] = std::byte{9};
  ByteReader r{f};
  EXPECT_THROW((void)NetCloneHeader::parse(r), CodecError);
}

TEST(NetCloneHeader, RejectsBadClo) {
  Frame f(NetCloneHeader::kSize, std::byte{0});
  f[0] = std::byte{1};
  f[1] = std::byte{3};
  ByteReader r{f};
  EXPECT_THROW((void)NetCloneHeader::parse(r), CodecError);
}

TEST(NetCloneHeader, Predicates) {
  NetCloneHeader h;
  h.type = MsgType::kRequest;
  EXPECT_TRUE(h.is_request());
  EXPECT_FALSE(h.is_response());
  EXPECT_FALSE(h.cloned());
  h.clo = CloneStatus::kClonedOriginal;
  EXPECT_TRUE(h.cloned());
}

// Round-trip sweep over CLO values and types.
class HeaderSweep
    : public ::testing::TestWithParam<std::tuple<MsgType, CloneStatus>> {};

TEST_P(HeaderSweep, RoundTrips) {
  NetCloneHeader h;
  h.type = std::get<0>(GetParam());
  h.clo = std::get<1>(GetParam());
  h.req_id = 77;
  Frame f;
  ByteWriter w{f};
  h.serialize(w);
  ByteReader r{f};
  const NetCloneHeader parsed = NetCloneHeader::parse(r);
  EXPECT_EQ(parsed.type, h.type);
  EXPECT_EQ(parsed.clo, h.clo);
  EXPECT_EQ(parsed.req_id, 77U);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, HeaderSweep,
    ::testing::Combine(::testing::Values(MsgType::kRequest,
                                         MsgType::kResponse),
                       ::testing::Values(CloneStatus::kNotCloned,
                                         CloneStatus::kClonedOriginal,
                                         CloneStatus::kClonedCopy)));

}  // namespace
}  // namespace netclone::wire

// Pooled frame buffers and the zero-copy packet path.
//
// Two properties anchor this file:
//   1. lifecycle — pooled buffers are recycled after the last release,
//      refcounts survive multicast fan-out and copy-on-write copies, and
//      the pool never loses track of a live buffer;
//   2. equivalence — serialize_pooled() (in-place patching with RFC 1624
//      incremental checksums, or a fresh build for a packet a host
//      makes) produces bytes identical to the legacy serialize() oracle
//      across randomized header mutations, clone fan-out, recirculation
//      chains and payload sizes, including the 0x0000/0xFFFF checksum
//      corner cases.
#include "wire/framebuf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "wire/frame.hpp"

namespace netclone::wire {
namespace {

Frame bytes_of(std::initializer_list<unsigned> values) {
  Frame out;
  out.reserve(values.size());
  for (const unsigned v : values) {
    out.push_back(static_cast<std::byte>(v));
  }
  return out;
}

Frame random_payload(Rng& rng, std::size_t size) {
  Frame out(size);
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.next_u32() & 0xFF);
  }
  return out;
}

Packet sample_packet(Rng& rng, std::size_t payload_size) {
  NetCloneHeader nc;
  nc.type = MsgType::kRequest;
  nc.grp = static_cast<std::uint16_t>(rng.next_below(1024));
  nc.req_id = rng.next_u32();
  nc.idx = static_cast<std::uint8_t>(rng.next_below(4));
  nc.client_id = static_cast<std::uint16_t>(rng.next_below(64));
  nc.client_seq = rng.next_u32();
  return make_netclone_packet(
      MacAddress::from_node(static_cast<std::uint32_t>(rng.next_below(64))),
      MacAddress::from_node(static_cast<std::uint32_t>(rng.next_below(64))),
      Ipv4Address{rng.next_u32()}, Ipv4Address{rng.next_u32()},
      static_cast<std::uint16_t>(40000 + rng.next_below(100)), nc,
      random_payload(rng, payload_size));
}

/// Applies the kind of header mutations the switch performs: destination
/// rewrite, clone marking, request id / state stamping.
void mutate_like_switch(Packet& pkt, Rng& rng) {
  if (rng.bernoulli(0.8)) {
    pkt.ip.dst = Ipv4Address{rng.next_u32()};
  }
  if (rng.bernoulli(0.5)) {
    pkt.nc().clo = static_cast<CloneStatus>(rng.next_below(3));
  }
  if (rng.bernoulli(0.5)) {
    pkt.nc().req_id = rng.next_u32();
  }
  if (rng.bernoulli(0.3)) {
    pkt.nc().sid = static_cast<std::uint8_t>(rng.next_below(16));
  }
  if (rng.bernoulli(0.3)) {
    pkt.nc().state = static_cast<std::uint16_t>(rng.next_below(256));
  }
  if (rng.bernoulli(0.2)) {
    pkt.nc().switch_id = static_cast<std::uint8_t>(rng.next_below(8));
  }
  if (rng.bernoulli(0.2)) {
    pkt.eth.dst = MacAddress::from_node(
        static_cast<std::uint32_t>(rng.next_below(64)));
  }
}

// -- pool lifecycle ---------------------------------------------------------

TEST(FramePool, AcquireReleaseBalancesLiveCount) {
  FramePool pool;
  FrameBuf* a = pool.acquire(100);
  FrameBuf* b = pool.acquire(1000);
  EXPECT_EQ(pool.stats().live, 2U);
  EXPECT_EQ(pool.stats().slabs_allocated, 2U);
  a->refs = 0;
  pool.release(a);
  b->refs = 0;
  pool.release(b);
  EXPECT_EQ(pool.stats().live, 0U);
  EXPECT_EQ(pool.stats().acquired, 2U);
  EXPECT_EQ(pool.stats().released, 2U);
}

TEST(FramePool, RecyclesFromFreeListAfterLastRelease) {
  FramePool pool;
  FrameBuf* a = pool.acquire(100);  // 128-byte class
  a->refs = 0;
  pool.release(a);
  FrameBuf* b = pool.acquire(90);  // same class: must hit the free list
  if (FramePool::kRecyclingEnabled) {
    EXPECT_EQ(pool.stats().recycled, 1U);
    EXPECT_EQ(pool.stats().slabs_allocated, 1U);
    EXPECT_EQ(b, a);  // the very same slab came back
  } else {
    // Under ASan recycling is off so use-after-release is a visible
    // heap-use-after-free; every acquire is a fresh allocation.
    EXPECT_EQ(pool.stats().recycled, 0U);
    EXPECT_EQ(pool.stats().slabs_allocated, 2U);
  }
  b->refs = 0;
  pool.release(b);
}

TEST(FramePool, OversizedRequestsAreUnpooled) {
  FramePool pool;
  FrameBuf* big = pool.acquire(1 << 16);
  EXPECT_EQ(big->capacity, 1U << 16);
  big->refs = 0;
  pool.release(big);
  FrameBuf* again = pool.acquire(1 << 16);
  EXPECT_EQ(pool.stats().recycled, 0U);  // oversized never hits a free list
  again->refs = 0;
  pool.release(again);
  EXPECT_EQ(pool.stats().live, 0U);
}

TEST(FrameHandle, CopiesShareBytesAndDropToZeroTogether) {
  FramePool pool;
  const Frame data = bytes_of({1, 2, 3, 4, 5});
  {
    FrameHandle h = FrameHandle::allocate(pool, data.size());
    std::memcpy(h.writable(), data.data(), data.size());
    EXPECT_EQ(h.use_count(), 1U);
    FrameHandle copy = h;
    EXPECT_EQ(h.use_count(), 2U);
    EXPECT_TRUE(copy.shares_buffer_with(h));
    EXPECT_EQ(copy.to_frame(), data);
    FrameHandle moved = std::move(copy);
    EXPECT_EQ(h.use_count(), 2U);  // move transfers, never bumps
    EXPECT_EQ(moved.to_frame(), data);
    EXPECT_EQ(pool.stats().live, 1U);
  }
  EXPECT_EQ(pool.stats().live, 0U);  // last handle out released the slab
}

TEST(FrameHandle, MulticastStyleFanOutKeepsBufferAliveUntilLastCopy) {
  FramePool pool;
  std::vector<FrameHandle> ports;
  {
    FrameHandle frame = FrameHandle::allocate(pool, 64);
    std::memset(frame.writable(), 0xAB, 64);
    for (int i = 0; i < 8; ++i) {
      ports.push_back(frame);  // the PRE: one refcount bump per port
    }
    EXPECT_EQ(frame.use_count(), 9U);
    EXPECT_EQ(pool.stats().live, 1U);  // 9 handles, ONE buffer
  }
  EXPECT_EQ(pool.stats().live, 1U);
  for (auto& p : ports) {
    EXPECT_EQ(p.bytes()[0], std::byte{0xAB});
  }
  ports.clear();
  EXPECT_EQ(pool.stats().live, 0U);
}

// -- copy-on-write ----------------------------------------------------------

TEST(FrameHandle, WritableHeadPatchesInPlaceWhenUnique) {
  FramePool pool;
  FrameHandle h = FrameHandle::allocate(pool, 32);
  std::memset(h.writable(), 0, 32);
  const std::byte* before = h.bytes().data();
  h.writable()[0] = std::byte{0xFF};
  EXPECT_EQ(h.bytes().data(), before);  // unique owner: no copy happened
  EXPECT_EQ(h.bytes()[0], std::byte{0xFF});
  EXPECT_EQ(pool.stats().live, 1U);
  EXPECT_EQ(pool.stats().acquired, 1U);
}

TEST(FrameHandle, WritableHeadSplitsWhenSharedAndLeavesOtherCopyIntact) {
  FramePool pool;
  FrameHandle original = FrameHandle::allocate(pool, 32);
  std::memset(original.writable(), 0x11, 32);
  FrameHandle clone = original;

  std::byte* bytes = clone.writable();
  bytes[0] = std::byte{0x99};

  // The clone moved to a private copy of the whole frame...
  EXPECT_FALSE(clone.shares_buffer_with(original));
  EXPECT_EQ(clone.use_count(), 1U);
  EXPECT_EQ(original.use_count(), 1U);
  // ...while the original still reads the untouched bytes.
  EXPECT_EQ(original.to_frame(), Frame(32, std::byte{0x11}));
  Frame expected(32, std::byte{0x11});
  expected[0] = std::byte{0x99};
  EXPECT_EQ(clone.to_frame(), expected);
  // The copy came from the frame's own pool.
  EXPECT_EQ(pool.stats().acquired, 2U);
  EXPECT_EQ(pool.stats().live, 2U);
}

TEST(FrameHandle, ToleratedBodyRefsAllowsInPlacePatching) {
  FramePool pool;
  FrameHandle a = FrameHandle::allocate(pool, 32);
  std::memset(a.writable(), 0, 32);
  FrameHandle b = a;  // e.g. a backed Packet's payload view
  a.writable(/*tolerated_refs=*/2)[0] = std::byte{0x42};
  EXPECT_TRUE(a.shares_buffer_with(b));  // two refs tolerated: in place
  EXPECT_EQ(b.bytes()[0], std::byte{0x42});
  EXPECT_EQ(pool.stats().acquired, 1U);
}

TEST(PayloadRef, ViewPinsBackingAndComparesLikeOwnedBytes) {
  FramePool pool;
  const Frame data = bytes_of({10, 20, 30, 40});
  PayloadRef view;
  {
    FrameHandle h = FrameHandle::allocate(pool, data.size());
    std::memcpy(h.writable(), data.data(), data.size());
    view = PayloadRef{h, h.bytes()};
  }
  // The handle went out of scope but the view keeps the buffer alive.
  EXPECT_EQ(pool.stats().live, 1U);
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view, data);
  EXPECT_EQ(view.to_frame(), data);
  view.clear();
  EXPECT_EQ(pool.stats().live, 0U);
}

// -- fast path vs legacy oracle --------------------------------------------

TEST(PacketFastpath, BackedParseMatchesLegacyParse) {
  Rng rng{0xBEEF};
  for (int round = 0; round < 200; ++round) {
    Packet built = sample_packet(rng, rng.next_below(200));
    const Frame wire = built.serialize();

    const Packet legacy = Packet::parse(wire);
    const Packet backed = Packet::parse_backed(FrameHandle::copy_of(wire));

    EXPECT_TRUE(backed.backed());
    EXPECT_FALSE(legacy.backed());
    EXPECT_EQ(backed.eth.src, legacy.eth.src);
    EXPECT_EQ(backed.ip.src, legacy.ip.src);
    EXPECT_EQ(backed.ip.dst, legacy.ip.dst);
    EXPECT_EQ(backed.ip.header_checksum, legacy.ip.header_checksum);
    EXPECT_EQ(backed.udp.checksum, legacy.udp.checksum);
    ASSERT_EQ(backed.has_netclone(), legacy.has_netclone());
    EXPECT_EQ(backed.nc().req_id, legacy.nc().req_id);
    EXPECT_TRUE(backed.payload.is_view());
    EXPECT_EQ(backed.payload, legacy.payload.to_frame());
  }
}

TEST(PacketFastpath, PatchedSerializeIsByteIdenticalToOracle) {
  Rng rng{0xC10E};
  for (int round = 0; round < 500; ++round) {
    Packet built = sample_packet(rng, rng.next_below(300));
    const Frame wire = built.serialize();

    Packet pkt = Packet::parse_backed(FrameHandle::copy_of(wire));
    mutate_like_switch(pkt, rng);

    // Oracle: full rebuild from the mutated struct fields.
    const Frame expected = pkt.serialize();
    // Fast path: in-place patch with incremental checksums.
    const FrameHandle fast = pkt.serialize_pooled();

    ASSERT_EQ(fast.to_frame(), expected) << "round " << round;
    // The struct's checksum fields were updated to the patched values.
    EXPECT_EQ(pkt.ip.header_checksum,
              peek_u16(expected, EthernetHeader::kSize + 10));
    EXPECT_TRUE(Packet::parse(expected).ip.checksum_valid());
  }
}

TEST(PacketFastpath, CloneFanOutSharesPayloadAndStaysByteExact) {
  Rng rng{0xFA40};
  for (int round = 0; round < 100; ++round) {
    Packet built = sample_packet(rng, 64 + rng.next_below(128));
    const Frame wire = built.serialize();
    const FrameHandle incoming = FrameHandle::copy_of(wire);

    // Two clone copies parsed from the same frame, mutated differently —
    // the LÆDGE/clone pattern. Both must match their own oracle, and
    // neither may write into the shared incoming frame.
    Packet a = Packet::parse_backed(incoming);
    Packet b = Packet::parse_backed(incoming);
    a.nc().clo = CloneStatus::kClonedOriginal;
    a.ip.dst = Ipv4Address{rng.next_u32()};
    b.nc().clo = CloneStatus::kClonedCopy;
    b.ip.dst = Ipv4Address{rng.next_u32()};
    b.nc().sid = 7;

    const Frame expect_a = a.serialize();
    const Frame expect_b = b.serialize();
    const FrameHandle fast_a = a.serialize_pooled();
    const FrameHandle fast_b = b.serialize_pooled();

    ASSERT_EQ(fast_a.to_frame(), expect_a);
    ASSERT_EQ(fast_b.to_frame(), expect_b);
    // The shared incoming frame must not have been scribbled on.
    ASSERT_EQ(incoming.to_frame(), wire);
    // Copy-on-write: each clone was patched into a private whole-frame
    // copy.
    EXPECT_FALSE(fast_a.shares_buffer_with(incoming));
    EXPECT_FALSE(fast_b.shares_buffer_with(incoming));
    EXPECT_FALSE(fast_a.shares_buffer_with(fast_b));
  }
}

TEST(PacketFastpath, RecirculationChainStaysByteExact) {
  Rng rng{0x5EC1};
  for (int round = 0; round < 50; ++round) {
    Packet built = sample_packet(rng, rng.next_below(100));
    FrameHandle frame = FrameHandle::copy_of(built.serialize());
    Frame oracle = frame.to_frame();

    // A recirculation loop: parse, mutate, re-serialize, feed the result
    // back in — several times, as the switch loopback port does.
    for (int hop = 0; hop < 4; ++hop) {
      Packet pkt = Packet::parse_backed(frame);
      Packet check = Packet::parse(oracle);
      mutate_like_switch(pkt, rng);
      // Apply identical mutations to the oracle packet by copying fields.
      check.eth = pkt.eth;
      check.ip = pkt.ip;
      check.udp = pkt.udp;
      check.netclone = pkt.netclone;
      frame = pkt.serialize_pooled();
      oracle = check.serialize();
      ASSERT_EQ(frame.to_frame(), oracle)
          << "round " << round << " hop " << hop;
    }
  }
}

TEST(PacketFastpath, UnchangedPacketForwardsTheExactSameBuffer) {
  Rng rng{0x1D1E};
  Packet built = sample_packet(rng, 32);
  const FrameHandle incoming = FrameHandle::copy_of(built.serialize());
  Packet pkt = Packet::parse_backed(incoming);
  const FrameHandle out = pkt.serialize_pooled();
  // No mutation: the very same buffer flows through, no copy at all.
  EXPECT_TRUE(out.shares_buffer_with(incoming));
  EXPECT_EQ(out.to_frame(), incoming.to_frame());
}

TEST(PacketFastpath, PayloadGrowthFallsBackToFullRebuild) {
  Rng rng{0x90FF};
  Packet built = sample_packet(rng, 16);
  const FrameHandle incoming = FrameHandle::copy_of(built.serialize());
  Packet pkt = Packet::parse_backed(incoming);
  pkt.payload = random_payload(rng, 64);  // size change: patching illegal
  const Frame expected = pkt.serialize();
  EXPECT_EQ(pkt.serialize_pooled().to_frame(), expected);
}

// -- RFC 1624 corner cases --------------------------------------------------

// Searches mutations that drive the patched IPv4 checksum through the
// 0x0000/0xFFFF boundary region, where naive incremental updates (RFC 1141)
// diverge from a full recompute. Equation 3 of RFC 1624 must agree with the
// oracle everywhere.
TEST(PacketFastpath, ChecksumBoundaryValuesMatchOracle) {
  Rng rng{0xCAFE};
  int boundary_hits = 0;
  for (int round = 0; round < 8000 && boundary_hits < 6; ++round) {
    Packet built = sample_packet(rng, 8);
    built.ip.identification = static_cast<std::uint16_t>(rng.next_below(3));
    const Frame wire = built.serialize();

    Packet pkt = Packet::parse_backed(FrameHandle::copy_of(wire));
    // Nudge identification so the new checksum lands near the boundary.
    const std::uint16_t old_csum = pkt.ip.header_checksum;
    pkt.ip.identification = static_cast<std::uint16_t>(
        pkt.ip.identification + old_csum);  // pushes the sum toward ~0

    const Frame expected = pkt.serialize();
    const std::uint16_t expect_csum =
        peek_u16(expected, EthernetHeader::kSize + 10);
    if (expect_csum == 0x0000 || expect_csum == 0xFFFF ||
        expect_csum <= 2 || expect_csum >= 0xFFFD) {
      ++boundary_hits;
    }
    ASSERT_EQ(pkt.serialize_pooled().to_frame(), expected)
        << "round " << round << " csum " << expect_csum;
  }
  EXPECT_GT(boundary_hits, 0) << "search never reached the boundary region";
}

// The UDP checksum has its own corner: a computed 0 must be transmitted as
// 0xFFFF (RFC 768). Construct the wrap exactly: shifting the dst low word
// by the old transmitted checksum (mod 0xFFFF) drives the new one's
// complement sum to ≡ 0, so the recompute passes through the 0 -> 0xFFFF
// rule — and the incremental patch must land on the same 0xFFFF.
TEST(PacketFastpath, UdpChecksumZeroWrapMatchesOracle) {
  Rng rng{0xD00D};
  int wraps = 0;
  for (int round = 0; round < 200; ++round) {
    Packet built = sample_packet(rng, 4);
    const Frame wire = built.serialize();
    Packet pkt = Packet::parse_backed(FrameHandle::copy_of(wire));

    const std::uint32_t m = pkt.ip.dst.value & 0xFFFFU;
    const std::uint32_t s = pkt.udp.checksum;  // old transmitted value
    const std::uint32_t mp = (m + s) % 0xFFFFU;
    pkt.ip.dst = Ipv4Address{(pkt.ip.dst.value & 0xFFFF0000U) | mp};

    const Frame expected = pkt.serialize();
    const std::uint16_t expect_csum =
        peek_u16(expected, EthernetHeader::kSize + Ipv4Header::kSize + 6);
    if (expect_csum == 0xFFFF) {
      ++wraps;
    }
    ASSERT_EQ(pkt.serialize_pooled().to_frame(), expected)
        << "round " << round << " udp csum " << expect_csum;
  }
  EXPECT_GT(wraps, 100) << "construction should hit the wrap most rounds";
}

// -- frames a host builds ---------------------------------------------------
//
// serialize_pooled() of an unbacked packet (the host build path) equals the
// legacy serialize() byte oracle. The suite keeps the name it had when hosts
// built frames by scatter-gather.

void expect_host_built_frames_match_oracle(Rng& rng, bool netclone) {
  // Sizes cover the empty payload and odd segment lengths.
  for (const std::size_t size : {0U, 1U, 2U, 7U, 64U, 333U}) {
    for (int round = 0; round < 50; ++round) {
      Packet pkt = sample_packet(rng, size);
      mutate_like_switch(pkt, rng);
      if (!netclone) {
        pkt.netclone.reset();
        pkt.udp.src_port = 40001;  // keep both ports off kNetClonePort
        pkt.udp.dst_port = 40002;
      }
      ASSERT_FALSE(pkt.backed());

      const Frame expected = pkt.serialize();  // legacy byte oracle
      ASSERT_EQ(pkt.serialize_pooled().to_frame(), expected)
          << "size " << size << " round " << round;
      EXPECT_TRUE(Packet::parse(expected).ip.checksum_valid());
    }
  }
}

TEST(PacketScatterGather, ComposedSerializeMatchesOracle) {
  // With the NetClone header the payload starts at an odd offset in the
  // UDP segment (8 + 21 bytes).
  Rng rng{0x56A7};
  expect_host_built_frames_match_oracle(rng, /*netclone=*/true);
}

TEST(PacketScatterGather, EvenPayloadOffsetMatchesOracle) {
  // Without the NetClone header the payload starts 8 bytes into the UDP
  // segment.
  Rng rng{0x0FF5};
  expect_host_built_frames_match_oracle(rng, /*netclone=*/false);
}

}  // namespace
}  // namespace netclone::wire

// Pooled frame buffers and the zero-copy packet path.
//
// Three properties anchor this file:
//   1. lifecycle — pooled buffers are recycled after the last release,
//      refcounts survive multicast fan-out and copy-on-write copies, and
//      the pool never loses track of a live buffer;
//   2. equivalence — PacketView's in-place writes (RFC 1624 incremental
//      checksums) and the pooled builder serialize_pooled() produce bytes
//      identical to the legacy serialize() oracle across randomized header
//      rewrites, clone fan-out, recirculation chains and payload sizes,
//      including the 0x0000/0xFFFF checksum corner cases;
//   3. parity — opening a PacketView rejects exactly the frames
//      Packet::parse rejects, and its getters read what parse reads.
#include "wire/framebuf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "test_util.hpp"
#include "wire/frame.hpp"
#include "wire/rpc.hpp"

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

/// Applies the rewrites a switch pass or the LÆDGE coordinator performs,
/// through the view's setters, and mirrors each on `oracle`'s fields.
void rewrite_like_switch(PacketView& view, Packet& oracle, Rng& rng) {
  if (rng.bernoulli(0.8)) {
    const Ipv4Address dst{rng.next_u32()};
    view.set_ip_dst(dst);
    oracle.ip.dst = dst;
  }
  if (rng.bernoulli(0.5)) {
    const auto clo = static_cast<CloneStatus>(rng.next_below(3));
    view.set_clo(clo);
    oracle.nc().clo = clo;
  }
  if (rng.bernoulli(0.5)) {
    const std::uint32_t req_id = rng.next_u32();
    view.set_req_id(req_id);
    oracle.nc().req_id = req_id;
  }
  if (rng.bernoulli(0.3)) {
    const auto sid = static_cast<std::uint8_t>(rng.next_below(16));
    view.set_sid(sid);
    oracle.nc().sid = sid;
  }
  if (rng.bernoulli(0.2)) {
    const auto switch_id = static_cast<std::uint8_t>(rng.next_below(8));
    view.set_switch_id(switch_id);
    oracle.nc().switch_id = switch_id;
  }
  if (rng.bernoulli(0.2)) {
    const Ipv4Address src{rng.next_u32()};
    view.set_ip_src(src);
    oracle.ip.src = src;
  }
  if (rng.bernoulli(0.2)) {
    const MacAddress mac = MacAddress::from_node(
        static_cast<std::uint32_t>(rng.next_below(64)));
    view.set_eth_src(mac);
    oracle.eth.src = mac;
  }
  if (rng.bernoulli(0.2)) {
    // Turn around, as a relayed response: one port stays kNetClonePort.
    const auto port =
        static_cast<std::uint16_t>(40000 + rng.next_below(100));
    view.set_src_port(kNetClonePort);
    view.set_dst_port(port);
    oracle.udp.src_port = kNetClonePort;
    oracle.udp.dst_port = port;
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
    Packet oracle = sample_packet(rng, rng.next_below(300));
    PacketView view{FrameHandle::copy_of(oracle.serialize())};
    rewrite_like_switch(view, oracle, rng);

    // Oracle: full rebuild from the rewritten struct fields. The view:
    // in-place writes with incremental checksums.
    const Frame expected = oracle.serialize();
    ASSERT_EQ(view.frame().to_frame(), expected) << "round " << round;
    EXPECT_EQ(Packet::parse(view.frame().bytes()).ip.header_checksum,
              peek_u16(expected, EthernetHeader::kSize + 10));
    EXPECT_TRUE(Packet::parse(expected).ip.checksum_valid());
    EXPECT_TRUE(verify_frame_checksums(view.frame()));
  }
}

TEST(PacketFastpath, CloneFanOutSharesPayloadAndStaysByteExact) {
  Rng rng{0xFA40};
  for (int round = 0; round < 100; ++round) {
    const Packet built = sample_packet(rng, 64 + rng.next_below(128));
    const Frame wire = built.serialize();
    const FrameHandle incoming = FrameHandle::copy_of(wire);

    // Two views of the same frame, rewritten differently — the LÆDGE/clone
    // pattern. Both must match their own oracle, and neither may write
    // into the shared incoming frame.
    PacketView a{incoming};
    PacketView b{incoming};
    Packet expect_a = built;
    Packet expect_b = built;
    a.set_clo(CloneStatus::kClonedOriginal);
    expect_a.nc().clo = CloneStatus::kClonedOriginal;
    const Ipv4Address dst_a{rng.next_u32()};
    a.set_ip_dst(dst_a);
    expect_a.ip.dst = dst_a;
    b.set_clo(CloneStatus::kClonedCopy);
    expect_b.nc().clo = CloneStatus::kClonedCopy;
    const Ipv4Address dst_b{rng.next_u32()};
    b.set_ip_dst(dst_b);
    expect_b.ip.dst = dst_b;
    b.set_sid(7);
    expect_b.nc().sid = 7;

    ASSERT_EQ(a.frame().to_frame(), expect_a.serialize());
    ASSERT_EQ(b.frame().to_frame(), expect_b.serialize());
    // The shared incoming frame must not have been scribbled on.
    ASSERT_EQ(incoming.to_frame(), wire);
    // Copy-on-write: each clone was rewritten in a private whole-frame
    // copy.
    EXPECT_FALSE(a.frame().shares_buffer_with(incoming));
    EXPECT_FALSE(b.frame().shares_buffer_with(incoming));
    EXPECT_FALSE(a.frame().shares_buffer_with(b.frame()));
  }
}

TEST(PacketFastpath, RecirculationChainStaysByteExact) {
  Rng rng{0x5EC1};
  for (int round = 0; round < 50; ++round) {
    Packet oracle = sample_packet(rng, rng.next_below(100));
    FrameHandle frame = FrameHandle::copy_of(oracle.serialize());

    // A recirculation loop: view, rewrite, feed the frame back in —
    // several times, as the switch loopback port does.
    for (int hop = 0; hop < 4; ++hop) {
      PacketView view{std::move(frame)};
      rewrite_like_switch(view, oracle, rng);
      frame = view.take_frame();
      ASSERT_EQ(frame.to_frame(), oracle.serialize())
          << "round " << round << " hop " << hop;
    }
  }
}

TEST(PacketFastpath, UnchangedPacketForwardsTheExactSameBuffer) {
  FramePool pool;
  Rng rng{0x1D1E};
  const FrameHandle incoming = netclone::testing::copy_into(
      pool, sample_packet(rng, 32).serialize());
  const std::uint64_t acquired = pool.stats().acquired;
  PacketView view{incoming};
  // Writing a field's current value writes nothing.
  view.set_eth_src(view.eth_src());
  view.set_ip_src(view.ip_src());
  view.set_ip_dst(view.ip_dst());
  view.set_src_port(view.src_port());
  view.set_dst_port(view.dst_port());
  view.set_clo(view.clo());
  view.set_sid(view.sid());
  view.set_req_id(view.req_id());
  view.set_switch_id(view.switch_id());
  const FrameHandle out = view.take_frame();
  // The very same buffer flows through, no copy at all.
  EXPECT_TRUE(out.shares_buffer_with(incoming));
  EXPECT_EQ(out.to_frame(), incoming.to_frame());
  EXPECT_EQ(pool.stats().acquired, acquired);
}

// -- RFC 1624 corner cases --------------------------------------------------

// Searches rewrites that drive the patched IPv4 checksum through the
// 0x0000/0xFFFF boundary region, where naive incremental updates (RFC 1141)
// diverge from a full recompute. Equation 3 of RFC 1624 must agree with the
// oracle everywhere.
TEST(PacketFastpath, ChecksumBoundaryValuesMatchOracle) {
  Rng rng{0xCAFE};
  int boundary_hits = 0;
  for (int round = 0; round < 8000 && boundary_hits < 6; ++round) {
    Packet oracle = sample_packet(rng, 8);
    const Frame wire = oracle.serialize();
    PacketView view{FrameHandle::copy_of(wire)};

    // Shift the destination's low word by the old checksum (plus 0-2):
    // that pushes the header sum toward ~0, so the new checksum lands
    // near the boundary.
    const std::uint16_t old_csum =
        peek_u16(wire, EthernetHeader::kSize + 10);
    const auto low = static_cast<std::uint16_t>(
        (oracle.ip.dst.value & 0xFFFFU) + old_csum + rng.next_below(3));
    const Ipv4Address dst{(oracle.ip.dst.value & 0xFFFF0000U) | low};
    view.set_ip_dst(dst);
    oracle.ip.dst = dst;

    const Frame expected = oracle.serialize();
    const std::uint16_t expect_csum =
        peek_u16(expected, EthernetHeader::kSize + 10);
    if (expect_csum == 0x0000 || expect_csum == 0xFFFF ||
        expect_csum <= 2 || expect_csum >= 0xFFFD) {
      ++boundary_hits;
    }
    ASSERT_EQ(view.frame().to_frame(), expected)
        << "round " << round << " csum " << expect_csum;
  }
  EXPECT_GT(boundary_hits, 0) << "search never reached the boundary region";
}

// The UDP checksum has its own corner: a computed 0 must be transmitted as
// 0xFFFF (RFC 768). Construct the wrap exactly: shifting the dst low word
// by the old transmitted checksum (mod 0xFFFF) drives the new one's
// complement sum to ≡ 0, so the recompute passes through the 0 -> 0xFFFF
// rule — and the incremental write must land on the same 0xFFFF.
TEST(PacketFastpath, UdpChecksumZeroWrapMatchesOracle) {
  Rng rng{0xD00D};
  int wraps = 0;
  for (int round = 0; round < 200; ++round) {
    Packet oracle = sample_packet(rng, 4);
    const Frame wire = oracle.serialize();
    PacketView view{FrameHandle::copy_of(wire)};

    const std::uint32_t m = oracle.ip.dst.value & 0xFFFFU;
    // The old transmitted value.
    const std::uint32_t s =
        peek_u16(wire, EthernetHeader::kSize + Ipv4Header::kSize + 6);
    const std::uint32_t mp = (m + s) % 0xFFFFU;
    const Ipv4Address dst{(oracle.ip.dst.value & 0xFFFF0000U) | mp};
    view.set_ip_dst(dst);
    oracle.ip.dst = dst;

    const Frame expected = oracle.serialize();
    const std::uint16_t expect_csum =
        peek_u16(expected, EthernetHeader::kSize + Ipv4Header::kSize + 6);
    if (expect_csum == 0xFFFF) {
      ++wraps;
    }
    ASSERT_EQ(view.frame().to_frame(), expected)
        << "round " << round << " udp csum " << expect_csum;
  }
  EXPECT_GT(wraps, 100) << "construction should hit the wrap most rounds";
}

// -- view parity with Packet::parse -----------------------------------------

/// Opens a view on `frame` and parses it: both must throw, with the same
/// error, or neither; an accepted frame's getters must read the parsed
/// fields.
void expect_view_matches_parse(const Frame& frame) {
  std::optional<Packet> parsed;
  std::string parse_error;
  try {
    parsed = Packet::parse(frame);
  } catch (const CodecError& e) {
    parse_error = e.what();
  }
  std::optional<PacketView> view;
  std::string view_error;
  try {
    view.emplace(FrameHandle::copy_of(frame));
  } catch (const CodecError& e) {
    view_error = e.what();
  }
  ASSERT_EQ(view.has_value(), parsed.has_value()) << parse_error
                                                  << view_error;
  EXPECT_EQ(view_error, parse_error);
  if (!parsed) {
    return;
  }
  EXPECT_EQ(view->size(), frame.size());
  EXPECT_EQ(view->eth_src(), parsed->eth.src);
  EXPECT_EQ(view->ip_src(), parsed->ip.src);
  EXPECT_EQ(view->ip_dst(), parsed->ip.dst);
  EXPECT_EQ(view->src_port(), parsed->udp.src_port);
  EXPECT_EQ(view->dst_port(), parsed->udp.dst_port);
  EXPECT_EQ(view->payload_ref(), parsed->payload);
  ASSERT_EQ(view->has_netclone(), parsed->has_netclone());
  if (!parsed->has_netclone()) {
    EXPECT_THROW((void)view->type(), CheckFailure);
    return;
  }
  const NetCloneHeader& nc = parsed->nc();
  EXPECT_EQ(view->type(), nc.type);
  EXPECT_EQ(view->clo(), nc.clo);
  EXPECT_EQ(view->grp(), nc.grp);
  EXPECT_EQ(view->req_id(), nc.req_id);
  EXPECT_EQ(view->sid(), nc.sid);
  EXPECT_EQ(view->state(), nc.state);
  EXPECT_EQ(view->idx(), nc.idx);
  EXPECT_EQ(view->switch_id(), nc.switch_id);
  EXPECT_EQ(view->client_id(), nc.client_id);
  EXPECT_EQ(view->client_seq(), nc.client_seq);
  EXPECT_EQ(view->frag_idx(), nc.frag_idx);
  EXPECT_EQ(view->frag_count(), nc.frag_count);
  EXPECT_TRUE(view->netclone() == nc);
}

TEST(PacketView, ThrowsExactlyWhenParseThrowsAndReadsTheSameFields) {
  Rng rng{0x9A81};
  const Packet request = sample_packet(rng, RpcRequest::kSize);
  Packet response = request;
  response.udp.src_port = kNetClonePort;
  response.udp.dst_port = 40007;
  response.nc().type = MsgType::kResponse;
  response.nc().clo = CloneStatus::kClonedCopy;
  response.nc().frag_idx = 1;
  response.nc().frag_count = 3;
  Packet plain = request;
  plain.netclone.reset();
  plain.udp.src_port = 40001;
  plain.udp.dst_port = 40002;
  plain.payload = random_payload(rng, 40);  // long enough for bytes 61-62

  // Ethernet type, IPv4 version/IHL and protocol, both UDP ports, and the
  // NetClone TYPE, CLO and fragment fields.
  const std::size_t checked[] = {12, 13, 14, 23, 34, 35,
                                 36, 37, 42, 43, 61, 62};
  for (const Packet* pkt :
       std::initializer_list<const Packet*>{&request, &response, &plain}) {
    const Frame wire = pkt->serialize();
    for (std::size_t len = 0; len <= wire.size(); ++len) {
      SCOPED_TRACE("truncated to " + std::to_string(len));
      expect_view_matches_parse(
          Frame{wire.begin(), wire.begin() + static_cast<long>(len)});
    }
    for (const std::size_t off : checked) {
      for (unsigned value = 0; value < 256; ++value) {
        SCOPED_TRACE("byte " + std::to_string(off) + " = " +
                     std::to_string(value));
        Frame frame = wire;
        frame[off] = static_cast<std::byte>(value);
        expect_view_matches_parse(frame);
      }
    }
  }
}

// -- the pooled builder -----------------------------------------------------
//
// serialize_pooled() of an unbacked packet (the builder of C-Clone cancels
// and chain markers) equals the legacy serialize() byte oracle. The suite
// keeps the name it had when hosts built frames by scatter-gather; the
// frames hosts write in place are held to the oracle in
// test_host_frames.cpp.

void expect_pooled_frames_match_oracle(Rng& rng, bool netclone) {
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
  expect_pooled_frames_match_oracle(rng, /*netclone=*/true);
}

TEST(PacketScatterGather, EvenPayloadOffsetMatchesOracle) {
  // Without the NetClone header the payload starts 8 bytes into the UDP
  // segment.
  Rng rng{0x0FF5};
  expect_pooled_frames_match_oracle(rng, /*netclone=*/false);
}

}  // namespace
}  // namespace netclone::wire

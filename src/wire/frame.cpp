#include "wire/frame.hpp"

#include "common/check.hpp"

namespace netclone::wire {

namespace {

// Absolute byte offsets within a serialized frame.
constexpr std::size_t kIpOff = EthernetHeader::kSize;           // 14
constexpr std::size_t kUdpOff = kIpOff + Ipv4Header::kSize;     // 34
constexpr std::size_t kIpCsumOff = kIpOff + 10;                 // 24
constexpr std::size_t kIpSrcOff = kIpOff + 12;                  // 26
constexpr std::size_t kIpProtoOff = kIpOff + 9;                 // 23
constexpr std::size_t kUdpLenOff = kUdpOff + 4;                 // 38
constexpr std::size_t kUdpCsumOff = kUdpOff + 6;                // 40

/// Folds a 32-bit accumulator and returns its one's complement — the final
/// step of every internet-checksum computation here.
std::uint16_t fold_complement(std::uint32_t sum) {
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFFU) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFFU);
}

/// Compares header fields against their wire bytes and accumulates RFC 1624
/// (eqn 3) checksum deltas: per changed byte m -> m', add (~m + m') at the
/// byte's position within its 16-bit word (headers start at even frame
/// offsets, so the position is the offset parity). The unchanged partner
/// byte of a half-dirty word contributes (~x + x) = 0xFFFF == 0 in one's
/// complement, which is why per-byte and per-word accumulation agree.
struct FieldDelta {
  const std::byte* old;
  std::uint32_t sum = 0;
  bool dirty = false;

  void u8(std::size_t off, std::uint8_t v) {
    const std::uint8_t o = load_u8(old, off);
    if (o == v) {
      return;
    }
    dirty = true;
    const std::uint32_t shift = (off & 1U) != 0 ? 0 : 8;
    sum += (~(static_cast<std::uint32_t>(o) << shift) & 0xFFFFU) +
           (static_cast<std::uint32_t>(v) << shift);
  }
  void u16(std::size_t off, std::uint16_t v) {
    if ((off & 1U) == 0) {
      const std::uint16_t o = load_u16(old, off);
      if (o == v) {
        return;
      }
      dirty = true;
      sum += (~static_cast<std::uint32_t>(o) & 0xFFFFU) + v;
    } else {
      u8(off, static_cast<std::uint8_t>(v >> 8));
      u8(off + 1, static_cast<std::uint8_t>(v & 0xFFU));
    }
  }
  void u32(std::size_t off, std::uint32_t v) {
    u16(off, static_cast<std::uint16_t>(v >> 16));
    u16(off + 2, static_cast<std::uint16_t>(v & 0xFFFFU));
  }
};

void write_u16_at(std::byte* base, std::size_t offset, std::uint16_t v) {
  base[offset] = static_cast<std::byte>(v >> 8);
  base[offset + 1] = static_cast<std::byte>(v & 0xFF);
}

/// Parses the header stack (Ethernet/IPv4/UDP/NetClone) off the reader,
/// leaving it positioned at the first payload byte.
Packet parse_headers(ByteReader& r) {
  Packet pkt;
  pkt.eth = EthernetHeader::parse(r);
  if (pkt.eth.ether_type != EtherType::kIpv4) {
    throw CodecError{"not an IPv4 frame"};
  }
  pkt.ip = Ipv4Header::parse(r);
  if (pkt.ip.protocol != IpProto::kUdp) {
    throw CodecError{"not a UDP packet"};
  }
  pkt.udp = UdpHeader::parse(r);
  if (pkt.udp.dst_port == kNetClonePort ||
      pkt.udp.src_port == kNetClonePort) {
    pkt.netclone = NetCloneHeader::parse(r);
  }
  return pkt;
}

}  // namespace

Packet Packet::parse(std::span<const std::byte> frame) {
  ByteReader r{frame};
  Packet pkt = parse_headers(r);
  const auto rest = r.rest();
  pkt.payload = Frame{rest.begin(), rest.end()};
  return pkt;
}

Packet Packet::parse_backed(const FrameHandle& frame) {
  ByteReader r{frame.bytes()};
  Packet pkt = parse_headers(r);
  pkt.payload = PayloadRef{frame, r.rest()};
  pkt.backing_ = frame;
  pkt.backed_header_len_ = static_cast<std::uint16_t>(r.offset());
  return pkt;
}

std::size_t Packet::wire_size() const {
  return header_size() + payload.size();
}

Frame Packet::serialize() const {
  // Build the UDP segment first so its checksum can cover the payload.
  Frame udp_segment;
  udp_segment.reserve(UdpHeader::kSize +
                      (netclone ? NetCloneHeader::kSize : 0) +
                      payload.size());
  {
    ByteWriter w{udp_segment};
    UdpHeader udp_fixed = udp;
    udp_fixed.length = static_cast<std::uint16_t>(
        UdpHeader::kSize + (netclone ? NetCloneHeader::kSize : 0) +
        payload.size());
    udp_fixed.checksum = 0;
    udp_fixed.serialize(w);
    if (netclone) {
      netclone->serialize(w);
    }
    w.bytes(payload);
    const std::uint16_t csum = udp_checksum(ip.src, ip.dst, udp_segment);
    poke_u16(udp_segment, 6, csum);
  }

  Frame out;
  out.reserve(EthernetHeader::kSize + Ipv4Header::kSize + udp_segment.size());
  ByteWriter w{out};
  eth.serialize(w);
  Ipv4Header ip_fixed = ip;
  ip_fixed.total_length =
      static_cast<std::uint16_t>(Ipv4Header::kSize + udp_segment.size());
  ip_fixed.serialize(w);
  w.bytes(udp_segment);
  return out;
}

FrameHandle Packet::serialize_pooled() {
  if (backing_ &&
      payload.views_buffer_of(backing_) &&
      backed_header_len_ == header_size() &&
      backing_.size() == wire_size()) {
    if (patch_backing()) {
      return backing_;
    }
  }
  return build_pooled();
}

bool Packet::patch_backing() {
  const std::size_t hdr_len = backed_header_len_;
  const std::size_t total = wire_size();
  const std::byte* o = backing_.bytes().data();

  // A zero UDP checksum means "not computed" (RFC 768); there is no valid
  // base to patch incrementally, so rebuild from scratch.
  const std::uint16_t old_ip_csum = load_u16(o, kIpCsumOff);
  const std::uint16_t old_udp_csum = load_u16(o, kUdpCsumOff);
  if (old_udp_csum == 0) {
    return false;
  }

  // Pass 1 — compare every header field against its wire bytes, without
  // writing anything (a clean packet must forward its backing untouched,
  // never copied). Three delta accumulators: bytes covered by the IP header
  // checksum only, by both (src/dst feed the UDP pseudo-header too), and by
  // the UDP checksum only. The checksum bytes themselves are skipped — new
  // checksums are derived from the deltas; the version/IHL byte is skipped
  // because parse and serialize both pin it to 0x45.
  bool eth_dirty = false;
  for (std::size_t i = 0; i < 6; ++i) {
    eth_dirty |= load_u8(o, i) != eth.dst.octets[i];
    eth_dirty |= load_u8(o, 6 + i) != eth.src.octets[i];
  }
  eth_dirty |=
      load_u16(o, 12) != static_cast<std::uint16_t>(eth.ether_type);

  FieldDelta ipd{o};
  FieldDelta addrd{o};  // IP src/dst: counted in both checksums
  FieldDelta udpd{o};
  ipd.u8(kIpOff + 1, ip.dscp);
  ipd.u16(kIpOff + 2,
          static_cast<std::uint16_t>(total - EthernetHeader::kSize));
  ipd.u16(kIpOff + 4, ip.identification);
  ipd.u16(kIpOff + 6, 0);  // flags + fragment offset: serializer pins to 0
  ipd.u8(kIpOff + 8, ip.ttl);
  // The IP protocol and UDP length bytes appear in both their own header
  // and the UDP pseudo-header; they never change here (protocol is fixed,
  // sizes are guarded equal), so a mismatch means patching is unsafe.
  if (load_u8(o, kIpProtoOff) != static_cast<std::uint8_t>(ip.protocol)) {
    return false;
  }
  addrd.u32(kIpSrcOff, ip.src.value);
  addrd.u32(kIpSrcOff + 4, ip.dst.value);
  udpd.u16(kUdpOff, udp.src_port);
  udpd.u16(kUdpOff + 2, udp.dst_port);
  if (load_u16(o, kUdpLenOff) !=
      static_cast<std::uint16_t>(total - kUdpOff)) {
    return false;
  }
  if (netclone) {
    constexpr std::size_t kNc = kUdpOff + UdpHeader::kSize;  // 42
    const NetCloneHeader& h = *netclone;
    udpd.u8(kNc + 0, static_cast<std::uint8_t>(h.type));
    udpd.u8(kNc + 1, static_cast<std::uint8_t>(h.clo));
    udpd.u16(kNc + 2, h.grp);
    udpd.u32(kNc + 4, h.req_id);
    udpd.u8(kNc + 8, h.sid);
    udpd.u16(kNc + 9, h.state);
    udpd.u8(kNc + 11, h.idx);
    udpd.u8(kNc + 12, h.switch_id);
    udpd.u16(kNc + 13, h.client_id);
    udpd.u32(kNc + 15, h.client_seq);
    udpd.u8(kNc + 19, h.frag_idx);
    udpd.u8(kNc + 20, h.frag_count);
  }
  if (!(eth_dirty || ipd.dirty || addrd.dirty || udpd.dirty)) {
    return true;  // nothing mutated; the backing bytes are already correct
  }

  // Derive the patched checksums from the accumulated deltas (RFC 1624
  // eqn 3: HC' = ~(~HC + deltas)). A zero delta keeps the wire value even
  // when other fields changed.
  const std::uint32_t ip_delta = ipd.sum + addrd.sum;
  const std::uint32_t udp_delta = udpd.sum + addrd.sum;
  ip.header_checksum =
      ip_delta != 0 ? fold_complement((~old_ip_csum & 0xFFFFU) + ip_delta)
                    : old_ip_csum;
  if (udp_delta != 0) {
    std::uint16_t csum =
        fold_complement((~old_udp_csum & 0xFFFFU) + udp_delta);
    if (csum == 0) {
      csum = 0xFFFF;  // RFC 768: computed zero is transmitted as all-ones
    }
    udp.checksum = csum;
  } else {
    udp.checksum = old_udp_csum;
  }

  // Pass 2 — re-serialize the header region straight into the backing with
  // the patched checksums planted. Copy-on-write: a backed packet
  // legitimately holds two references to its buffer (backing_ + the
  // payload view), so two refs still means exclusive.
  std::byte* dst = backing_.writable(/*tolerated_refs=*/2);
  ByteWriter w{std::span<std::byte>{dst, hdr_len}};
  eth.serialize(w);
  Ipv4Header ip_fixed = ip;
  ip_fixed.total_length =
      static_cast<std::uint16_t>(total - EthernetHeader::kSize);
  ip_fixed.serialize_with_checksum(w, ip.header_checksum);
  UdpHeader udp_fixed = udp;
  udp_fixed.length = static_cast<std::uint16_t>(total - kUdpOff);
  udp_fixed.checksum = udp.checksum;
  udp_fixed.serialize(w);
  if (netclone) {
    netclone->serialize(w);
  }
  return true;
}

FrameHandle Packet::build_pooled() const {
  const std::size_t total = wire_size();
  FrameHandle h = FrameHandle::allocate(total);
  std::byte* dst = h.writable();
  ByteWriter w{std::span<std::byte>{dst, total}};
  eth.serialize(w);
  Ipv4Header ip_fixed = ip;
  ip_fixed.total_length =
      static_cast<std::uint16_t>(total - EthernetHeader::kSize);
  ip_fixed.serialize(w);
  UdpHeader udp_fixed = udp;
  udp_fixed.length = static_cast<std::uint16_t>(total - kUdpOff);
  udp_fixed.checksum = 0;
  udp_fixed.serialize(w);
  if (netclone) {
    netclone->serialize(w);
  }
  w.bytes(payload);
  NETCLONE_CHECK(w.written() == total, "pooled serialize size mismatch");
  const std::uint16_t csum = udp_checksum(
      ip.src, ip.dst, std::span<const std::byte>{dst + kUdpOff,
                                                 total - kUdpOff});
  write_u16_at(dst, kUdpCsumOff, csum);
  return h;
}

bool verify_frame_checksums(const FrameHandle& frame) {
  const auto bytes = frame.bytes();
  if (bytes.size() < kUdpOff + UdpHeader::kSize) {
    return true;  // too short to carry the checksummed headers
  }
  const std::byte* o = bytes.data();
  if (load_u16(o, 12) != static_cast<std::uint16_t>(EtherType::kIpv4)) {
    return true;  // not IPv4: nothing here is checksummed
  }
  // The IPv4 header sums to zero (complemented) when intact — this also
  // covers flips in version/IHL, lengths, protocol, and addresses.
  if (internet_checksum(bytes.subspan(kIpOff, Ipv4Header::kSize)) != 0) {
    return false;
  }
  if (load_u8(o, kIpProtoOff) != static_cast<std::uint8_t>(IpProto::kUdp)) {
    return true;  // IPv4 header intact but not UDP: nothing more to check
  }
  // Lengths must agree with the bytes on the wire before the UDP sum can
  // mean anything; a mismatch is an integrity failure in its own right.
  if (load_u16(o, kIpOff + 2) !=
          static_cast<std::uint16_t>(bytes.size() - kIpOff) ||
      load_u16(o, kUdpLenOff) !=
          static_cast<std::uint16_t>(bytes.size() - kUdpOff)) {
    return false;
  }
  if (load_u16(o, kUdpCsumOff) == 0) {
    return true;  // RFC 768: zero means the sender skipped the checksum
  }
  const std::uint32_t pseudo =
      static_cast<std::uint32_t>(load_u16(o, kIpSrcOff)) +
      load_u16(o, kIpSrcOff + 2) + load_u16(o, kIpSrcOff + 4) +
      load_u16(o, kIpSrcOff + 6) +
      static_cast<std::uint32_t>(IpProto::kUdp) +
      static_cast<std::uint32_t>(bytes.size() - kUdpOff);
  // internet_checksum zero-pads an odd-length segment (RFC 1071).
  return internet_checksum(bytes.subspan(kUdpOff), pseudo) == 0;
}

NetCloneHeader& Packet::nc() {
  NETCLONE_CHECK(netclone.has_value(), "packet has no NetClone header");
  return *netclone;
}

const NetCloneHeader& Packet::nc() const {
  NETCLONE_CHECK(netclone.has_value(), "packet has no NetClone header");
  return *netclone;
}

Packet make_netclone_packet(MacAddress src_mac, MacAddress dst_mac,
                            Ipv4Address src, Ipv4Address dst,
                            std::uint16_t src_port, const NetCloneHeader& nc,
                            Frame payload) {
  Packet pkt;
  pkt.eth.src = src_mac;
  pkt.eth.dst = dst_mac;
  pkt.eth.ether_type = EtherType::kIpv4;
  pkt.ip.src = src;
  pkt.ip.dst = dst;
  pkt.ip.protocol = IpProto::kUdp;
  pkt.udp.src_port = src_port;
  pkt.udp.dst_port = kNetClonePort;
  pkt.netclone = nc;
  pkt.payload = std::move(payload);
  return pkt;
}

}  // namespace netclone::wire

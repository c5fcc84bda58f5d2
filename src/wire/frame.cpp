#include "wire/frame.hpp"

#include "common/check.hpp"

namespace netclone::wire {

namespace {

// Absolute byte offsets within a serialized frame.
constexpr std::size_t kIpProtoOff = kIpOffset + 9;   // 23
constexpr std::size_t kIpSrcOff = kIpOffset + 12;    // 26
constexpr std::size_t kUdpLenOff = kUdpOffset + 4;   // 38
constexpr std::size_t kUdpCsumOff = kUdpOffset + 6;  // 40

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

FrameHandle Packet::write_headers(std::size_t body_size) const {
  const std::size_t total = header_size() + body_size;
  FrameHandle h = FrameHandle::allocate(total);
  ByteWriter w{std::span<std::byte>{h.writable(), header_size()}};
  eth.serialize(w);
  Ipv4Header ip_fixed = ip;
  ip_fixed.total_length = static_cast<std::uint16_t>(total - kIpOffset);
  ip_fixed.serialize(w);
  UdpHeader udp_fixed = udp;
  udp_fixed.length = static_cast<std::uint16_t>(total - kUdpOffset);
  udp_fixed.checksum = 0;
  udp_fixed.serialize(w);
  if (netclone) {
    netclone->serialize(w);
  }
  return h;
}

void Packet::seal_udp_checksum(std::byte* frame, std::size_t size) {
  const std::uint16_t csum = udp_checksum(
      Ipv4Address{load_u32(frame, kIpSrcOff)},
      Ipv4Address{load_u32(frame, kIpSrcOff + 4)},
      std::span<const std::byte>{frame + kUdpOffset, size - kUdpOffset});
  store_u16(frame, kUdpCsumOff, csum);
}

bool verify_frame_checksums(const FrameHandle& frame) {
  const auto bytes = frame.bytes();
  if (bytes.size() < kUdpOffset + UdpHeader::kSize) {
    return true;  // too short to carry the checksummed headers
  }
  const std::byte* o = bytes.data();
  if (load_u16(o, 12) != static_cast<std::uint16_t>(EtherType::kIpv4)) {
    return true;  // not IPv4: nothing here is checksummed
  }
  // The IPv4 header sums to zero (complemented) when intact — this also
  // covers flips in version/IHL, lengths, protocol, and addresses.
  if (internet_checksum(bytes.subspan(kIpOffset, Ipv4Header::kSize)) != 0) {
    return false;
  }
  if (load_u8(o, kIpProtoOff) != static_cast<std::uint8_t>(IpProto::kUdp)) {
    return true;  // IPv4 header intact but not UDP: nothing more to check
  }
  // Lengths must agree with the bytes on the wire before the UDP sum can
  // mean anything; a mismatch is an integrity failure in its own right.
  if (load_u16(o, kIpOffset + 2) !=
          static_cast<std::uint16_t>(bytes.size() - kIpOffset) ||
      load_u16(o, kUdpLenOff) !=
          static_cast<std::uint16_t>(bytes.size() - kUdpOffset)) {
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
      static_cast<std::uint32_t>(bytes.size() - kUdpOffset);
  // internet_checksum zero-pads an odd-length segment (RFC 1071).
  return internet_checksum(bytes.subspan(kUdpOffset), pseudo) == 0;
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

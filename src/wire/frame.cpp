#include "wire/frame.hpp"

#include "common/check.hpp"

namespace netclone::wire {

namespace {

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

FrameHandle Packet::serialize_pooled() const {
  const std::size_t total = wire_size();
  FrameHandle h = FrameHandle::allocate(FramePool::instance(), total);
  std::byte* bytes = h.writable();
  ByteWriter w{std::span<std::byte>{bytes, total}};
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
  w.bytes(payload);
  seal_udp_checksum(bytes, total);
  return h;
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

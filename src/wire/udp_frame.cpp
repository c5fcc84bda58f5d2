#include "wire/udp_frame.hpp"

#include <cstring>

#include "common/check.hpp"

namespace netclone::wire {

namespace {

// Absolute byte offsets within a frame.
constexpr std::size_t kIpProtoOff = kIpOffset + 9;   // 23
constexpr std::size_t kIpSrcOff = kIpOffset + 12;    // 26
constexpr std::size_t kUdpLenOff = kUdpOffset + 4;   // 38
constexpr std::size_t kUdpCsumOff = kUdpOffset + 6;  // 40

}  // namespace

void write_udp_headers(std::byte* frame, const UdpFlow& flow,
                       std::size_t size) {
  NETCLONE_CHECK(size >= kNetCloneOffset && size <= 0xFFFF,
                 "UDP frame size out of range");
  ByteWriter w{std::span<std::byte>{frame, kNetCloneOffset}};
  EthernetHeader{flow.dst_mac, flow.src_mac, EtherType::kIpv4}.serialize(w);
  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(size - kIpOffset);
  ip.protocol = IpProto::kUdp;
  ip.src = flow.src_ip;
  ip.dst = flow.dst_ip;
  ip.serialize(w);
  UdpHeader{flow.src_port, flow.dst_port,
            static_cast<std::uint16_t>(size - kUdpOffset), /*checksum=*/0}
      .serialize(w);
}

void seal_udp_checksum(std::byte* frame, std::size_t size) {
  store_u16(frame, kUdpCsumOff, 0);
  const std::uint16_t csum = udp_checksum(
      Ipv4Address{load_u32(frame, kIpSrcOff)},
      Ipv4Address{load_u32(frame, kIpSrcOff + 4)},
      std::span<const std::byte>{frame + kUdpOffset, size - kUdpOffset});
  store_u16(frame, kUdpCsumOff, csum);
}

FrameHandle header_only_frame(FramePool& pool, const UdpFlow& flow,
                              const NetCloneHeader& nc) {
  FrameHandle frame = FrameHandle::allocate(pool, kNetClonePayloadOffset);
  std::byte* p = frame.writable();
  write_udp_headers(p, flow, kNetClonePayloadOffset);
  nc.store(p + kNetCloneOffset);
  seal_udp_checksum(p, kNetClonePayloadOffset);
  return frame;
}

HeaderTemplate::HeaderTemplate(const UdpFlow& flow, std::size_t frame_size)
    : frame_size_(frame_size) {
  write_udp_headers(headers_.data(), flow, frame_size);
}

FrameHandle HeaderTemplate::stamp(FramePool& pool) const {
  FrameHandle frame = FrameHandle::allocate(pool, frame_size_);
  std::memcpy(frame.writable(), headers_.data(), headers_.size());
  return frame;
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

}  // namespace netclone::wire

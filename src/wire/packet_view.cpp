#include "wire/packet_view.hpp"

namespace netclone::wire {

namespace {

constexpr std::size_t kIpCsumOff = kIpOffset + 10;  // 24
constexpr std::size_t kUdpCsumOff = kUdpOffset + 6;  // 40

/// HC' = ~(~HC + delta) for the checksum at `off` (RFC 1624, eqn 3).
std::uint16_t patched(const std::byte* frame, std::size_t off,
                      std::uint32_t delta) {
  std::uint32_t sum =
      (~static_cast<std::uint32_t>(load_u16(frame, off)) & 0xFFFFU) + delta;
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFFU) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFFU);
}

/// Folds a change's delta into the UDP checksum and, for a field of the
/// IPv4 header, into the IPv4 checksum too.
void fold_delta(std::byte* frame, std::uint32_t delta, bool ip_header) {
  if (delta == 0) {
    return;  // 0xFFFF -> 0x0000: both are zero in one's complement
  }
  if (ip_header) {
    store_u16(frame, kIpCsumOff, patched(frame, kIpCsumOff, delta));
  }
  // RFC 768: a zero UDP checksum means the sender computed none, so it
  // stays zero; a computed zero is transmitted as all-ones.
  if (load_u16(frame, kUdpCsumOff) != 0) {
    const std::uint16_t csum = patched(frame, kUdpCsumOff, delta);
    store_u16(frame, kUdpCsumOff, csum == 0 ? 0xFFFF : csum);
  }
}

}  // namespace

PacketView::PacketView(FrameHandle frame) : frame_(std::move(frame)) {
  // Packet::parse's checks, in its order and with its errors.
  const std::span<const std::byte> bytes = frame_.bytes();
  const std::byte* p = bytes.data();
  if (bytes.size() < kIpOffset) {
    throw_reader_underrun();
  }
  if (load_u16(p, 12) != static_cast<std::uint16_t>(EtherType::kIpv4)) {
    throw CodecError{"not an IPv4 frame"};
  }
  if (bytes.size() < kUdpOffset) {
    throw_reader_underrun();
  }
  if (load_u8(p, kIpOffset) != 0x45) {
    throw CodecError{"unsupported IPv4 version/IHL"};
  }
  if (load_u8(p, kIpOffset + 9) !=
      static_cast<std::uint8_t>(IpProto::kUdp)) {
    throw CodecError{"not a UDP packet"};
  }
  if (bytes.size() < kNetCloneOffset) {
    throw_reader_underrun();
  }
  has_netclone_ = load_u16(p, kUdpOffset) == kNetClonePort ||
                  load_u16(p, kUdpOffset + 2) == kNetClonePort;
  if (has_netclone_) {
    if (bytes.size() < kNetCloneOffset + NetCloneHeader::kSize) {
      throw_reader_underrun();
    }
    NetCloneHeader::check(p + kNetCloneOffset);
  }
  bytes_ = p;
}

MacAddress PacketView::eth_src() const {
  MacAddress mac;
  for (std::size_t i = 0; i < mac.octets.size(); ++i) {
    mac.octets[i] = load_u8(bytes_, 6 + i);
  }
  return mac;
}

std::byte* PacketView::writable() {
  std::byte* bytes = frame_.writable();
  bytes_ = bytes;
  return bytes;
}

void PacketView::set_eth_src(const MacAddress& mac) {
  if (eth_src() == mac) {
    return;
  }
  std::byte* w = writable();
  for (std::size_t i = 0; i < mac.octets.size(); ++i) {
    store_u8(w, 6 + i, mac.octets[i]);
  }
}

void PacketView::write_field(std::size_t off, std::size_t width,
                             std::uint32_t v, Covered covered) {
  const std::uint32_t old =
      width == 4 ? load_u32(bytes_, off) : load_u16(bytes_, off);
  if (old == v) {
    return;
  }
  std::byte* w = writable();
  // Each changed 16-bit word m -> m' adds ~m + m'.
  std::uint32_t delta = 0;
  for (std::size_t i = 0; i < width; i += 2) {
    const std::size_t shift = 8 * (width - 2 - i);
    const auto from = static_cast<std::uint16_t>(old >> shift);
    const auto to = static_cast<std::uint16_t>(v >> shift);
    if (from != to) {
      store_u16(w, off + i, to);
      delta += (~static_cast<std::uint32_t>(from) & 0xFFFFU) + to;
    }
  }
  fold_delta(w, delta, covered == Covered::kIpAndUdp);
}

void PacketView::write_byte(std::size_t off, std::uint8_t v) {
  const std::uint8_t old = load_u8(bytes_, off);
  if (old == v) {
    return;
  }
  std::byte* w = writable();
  store_u8(w, off, v);
  // The byte's place in its 16-bit word (headers start at even offsets);
  // its unchanged partner byte x adds ~x + x, which is zero.
  const std::uint32_t shift = (off & 1U) != 0 ? 0 : 8;
  fold_delta(w,
             (~(static_cast<std::uint32_t>(old) << shift) & 0xFFFFU) +
                 (static_cast<std::uint32_t>(v) << shift),
             /*ip_header=*/false);
}

}  // namespace netclone::wire

// A header view of one pooled frame: the data path's packet form.
//
// Algorithm 1 reads a few NetClone fields and rewrites at most four per
// switch pass, so switches and hosts work on the frame bytes directly
// instead of parsing into a Packet and deparsing it again. Opening a view
// checks the frame once, at the fixed offsets of the header stack
// (Ethernet at 0, IPv4 at 14, UDP at 34, NetClone at 42), and rejects
// exactly the frames Packet::parse rejects, with the same CodecError.
// Getters load big-endian fields straight from the frame. A setter writes
// its field in place — after copy-on-write when the buffer is shared — and
// folds the change into the IPv4 and UDP checksums at once (RFC 1624
// eqn 3), the way p4c's eBPF back end writes modified fields into packet
// memory. Writing a field's current value writes nothing, so an untouched
// frame leaves as the very buffer that arrived.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "common/check.hpp"
#include "wire/ethernet.hpp"
#include "wire/framebuf.hpp"
#include "wire/ipv4.hpp"
#include "wire/netclone_header.hpp"
#include "wire/udp.hpp"
#include "wire/udp_frame.hpp"

namespace netclone::wire {

class PacketView {
 public:
  /// An empty view; assign an opened one before use.
  PacketView() = default;
  /// Opens a view on `frame`. Throws CodecError on a frame Packet::parse
  /// rejects. A NetClone header is present iff either UDP port equals
  /// kNetClonePort.
  explicit PacketView(FrameHandle frame);

  [[nodiscard]] bool has_netclone() const { return has_netclone_; }
  [[nodiscard]] std::size_t size() const { return frame_.size(); }
  [[nodiscard]] const FrameHandle& frame() const { return frame_; }
  /// Hands over the frame with every write applied; the view is empty
  /// afterwards.
  [[nodiscard]] FrameHandle take_frame() {
    bytes_ = nullptr;
    return std::move(frame_);
  }

  // -- Ethernet, IPv4, UDP ---------------------------------------------------
  [[nodiscard]] MacAddress eth_src() const;
  [[nodiscard]] Ipv4Address ip_src() const {
    return Ipv4Address{load_u32(bytes_, kIpOffset + 12)};
  }
  [[nodiscard]] Ipv4Address ip_dst() const {
    return Ipv4Address{load_u32(bytes_, kIpOffset + 16)};
  }
  [[nodiscard]] std::uint16_t src_port() const {
    return load_u16(bytes_, kUdpOffset);
  }
  [[nodiscard]] std::uint16_t dst_port() const {
    return load_u16(bytes_, kUdpOffset + 2);
  }

  // -- NetClone (fails loudly without a NetClone header) ---------------------
  [[nodiscard]] MsgType type() const {
    return static_cast<MsgType>(load_u8(nc(), 0));
  }
  [[nodiscard]] CloneStatus clo() const {
    return static_cast<CloneStatus>(load_u8(nc(), 1));
  }
  [[nodiscard]] std::uint16_t grp() const { return load_u16(nc(), 2); }
  [[nodiscard]] std::uint32_t req_id() const { return load_u32(nc(), 4); }
  [[nodiscard]] std::uint8_t sid() const { return load_u8(nc(), 8); }
  [[nodiscard]] std::uint16_t state() const { return load_u16(nc(), 9); }
  [[nodiscard]] std::uint8_t idx() const { return load_u8(nc(), 11); }
  [[nodiscard]] std::uint8_t switch_id() const { return load_u8(nc(), 12); }
  [[nodiscard]] std::uint16_t client_id() const {
    return load_u16(nc(), 13);
  }
  [[nodiscard]] std::uint32_t client_seq() const {
    return load_u32(nc(), 15);
  }
  [[nodiscard]] std::uint8_t frag_idx() const { return load_u8(nc(), 19); }
  [[nodiscard]] std::uint8_t frag_count() const {
    return load_u8(nc(), 20);
  }
  /// The whole NetClone header as a struct, for hosts that queue it.
  [[nodiscard]] NetCloneHeader netclone() const {
    return NetCloneHeader::load(nc());
  }

  /// The application payload: everything after the header stack.
  [[nodiscard]] std::span<const std::byte> payload() const {
    return frame_.bytes().subspan(kNetCloneOffset +
                                  (has_netclone_ ? NetCloneHeader::kSize
                                                 : 0));
  }

  // -- in-place writes: one setter per field the data path rewrites ----------
  void set_eth_src(const MacAddress& mac);
  void set_ip_src(Ipv4Address ip) {
    write_field(kIpOffset + 12, 4, ip.value, Covered::kIpAndUdp);
  }
  void set_ip_dst(Ipv4Address ip) {
    write_field(kIpOffset + 16, 4, ip.value, Covered::kIpAndUdp);
  }
  void set_src_port(std::uint16_t port) {
    write_field(kUdpOffset, 2, port, Covered::kUdp);
  }
  void set_dst_port(std::uint16_t port) {
    write_field(kUdpOffset + 2, 2, port, Covered::kUdp);
  }
  void set_clo(CloneStatus clo) {
    write_byte(nc_offset(1), static_cast<std::uint8_t>(clo));
  }
  void set_sid(std::uint8_t sid) { write_byte(nc_offset(8), sid); }
  void set_req_id(std::uint32_t id) {
    write_field(nc_offset(4), 4, id, Covered::kUdp);
  }
  void set_switch_id(std::uint8_t id) { write_byte(nc_offset(12), id); }

 private:
  /// The checksums a field is covered by: IPv4 addresses sit in the IPv4
  /// header and the UDP pseudo-header; ports and NetClone fields sit in
  /// the UDP segment only.
  enum class Covered : std::uint8_t { kUdp, kIpAndUdp };

  [[nodiscard]] std::size_t nc_offset(std::size_t field) const {
    NETCLONE_CHECK(has_netclone_, "packet has no NetClone header");
    return kNetCloneOffset + field;
  }
  [[nodiscard]] const std::byte* nc() const { return bytes_ + nc_offset(0); }

  /// Writes a `width`-byte (2 or 4) big-endian field at an even offset.
  void write_field(std::size_t off, std::size_t width, std::uint32_t v,
                   Covered covered);
  /// Writes a one-byte NetClone field.
  void write_byte(std::size_t off, std::uint8_t v);
  /// Copy-on-write: the frame's own bytes to write through.
  [[nodiscard]] std::byte* writable();

  FrameHandle frame_{};
  /// frame_'s bytes, refreshed on copy-on-write.
  const std::byte* bytes_ = nullptr;
  bool has_netclone_ = false;
};

}  // namespace netclone::wire

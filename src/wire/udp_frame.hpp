// Frames written and checked in place: the host side of the wire.
//
// Every frame here is Ethernet + IPv4 (no options) + UDP + optional
// NetClone header + payload, at fixed offsets. A host writes its frames
// straight into pooled buffers with the helpers below, taking every fresh
// frame from the pool its node was handed (phys::Node::pool):
//   * a client stamps each request from a HeaderTemplate — the Ethernet,
//     IPv4 and UDP headers of one destination's requests, written once —
//     and writes only the NetClone header, the RPC body and the UDP
//     checksum;
//   * a server writes each response over its request's own frame when it
//     holds that buffer alone and the response fits it
//     (FrameHandle::reuse), and into a fresh pooled frame otherwise:
//     write_udp_headers, the NetClone header, the body, and the seal;
//   * a frame that carries only a NetClone header — a server's fragment
//     marker, a C-Clone cancel, the chain controller's sync marker — is
//     header_only_frame.
// wire::Packet (frame.hpp) is the byte oracle these writes are tested
// against (tests/test_host_frames.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "wire/ethernet.hpp"
#include "wire/framebuf.hpp"
#include "wire/ipv4.hpp"
#include "wire/netclone_header.hpp"
#include "wire/udp.hpp"

namespace netclone::wire {

// Byte offsets of the header stack every frame here carries: NetClone's
// single-packet RPCs use IPv4 without options.
inline constexpr std::size_t kIpOffset = EthernetHeader::kSize;  // 14
inline constexpr std::size_t kUdpOffset =
    kIpOffset + Ipv4Header::kSize;  // 34
inline constexpr std::size_t kNetCloneOffset =
    kUdpOffset + UdpHeader::kSize;  // 42
/// The first payload byte of a frame with a NetClone header.
inline constexpr std::size_t kNetClonePayloadOffset =
    kNetCloneOffset + NetCloneHeader::kSize;  // 63

/// The addresses and ports of one direction of a UDP flow.
struct UdpFlow {
  MacAddress src_mac{};
  MacAddress dst_mac{};
  Ipv4Address src_ip{};
  Ipv4Address dst_ip{};
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

/// Writes the Ethernet, IPv4 and UDP headers of a `size`-byte frame of
/// `flow` at `frame`: both lengths and the IPv4 checksum filled in, the
/// other IPv4 fields at Ipv4Header's defaults, the UDP checksum zero.
void write_udp_headers(std::byte* frame, const UdpFlow& flow,
                       std::size_t size);

/// Computes the UDP checksum of the complete `size`-byte frame at `frame`
/// (pseudo-header included, its checksum field read as zero) into the
/// frame's UDP header.
void seal_udp_checksum(std::byte* frame, std::size_t size);

/// A fresh frame from `pool` holding `flow`'s headers and `nc`, sealed.
[[nodiscard]] FrameHandle header_only_frame(FramePool& pool,
                                            const UdpFlow& flow,
                                            const NetCloneHeader& nc);

/// The Ethernet, IPv4 and UDP headers of one flow's `frame_size`-byte
/// frames, written once. Stamping a frame copies them, lengths and IPv4
/// checksum included; what follows the UDP header, and the UDP checksum,
/// are left to the caller.
class HeaderTemplate {
 public:
  HeaderTemplate(const UdpFlow& flow, std::size_t frame_size);

  [[nodiscard]] std::size_t frame_size() const { return frame_size_; }
  /// A fresh frame of frame_size() bytes from `pool`, headers stamped in.
  [[nodiscard]] FrameHandle stamp(FramePool& pool) const;

 private:
  std::array<std::byte, kNetCloneOffset> headers_{};
  std::size_t frame_size_ = 0;
};

/// Receive-path integrity check: verifies the IPv4 header checksum and
/// the UDP checksum (pseudo-header included) directly against the frame
/// bytes, in one pass over the contiguous frame. Returns
/// false when either checksum fails or the IP/UDP lengths disagree with
/// the frame size — the caller should drop and count the frame. Frames
/// that are not IPv4/UDP-shaped return true: they carry no checksum to
/// verify and the parser rejects them on its own.
[[nodiscard]] bool verify_frame_checksums(const FrameHandle& frame);

}  // namespace netclone::wire

// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "host/addressing.hpp"
#include "phys/node.hpp"
#include "pisa/pipeline.hpp"
#include "pisa/program.hpp"
#include "wire/frame.hpp"
#include "wire/rpc.hpp"

namespace netclone::testing {

/// A topology endpoint that records every frame it receives.
class CaptureNode : public phys::Node {
 public:
  explicit CaptureNode(std::string name = "capture")
      : phys::Node(std::move(name)) {}

  void handle_frame(std::size_t port, wire::FrameHandle frame) override {
    // Linearize at the observation boundary so assertions compare plain
    // byte vectors regardless of how the frame was shared upstream.
    received.push_back({port, frame.to_frame()});
  }

  /// Transmits a frame out of a port (protected in Node).
  void transmit(std::size_t port, wire::FrameHandle frame) {
    send(port, std::move(frame));
  }

  [[nodiscard]] std::vector<wire::Packet> packets() const {
    std::vector<wire::Packet> out;
    out.reserve(received.size());
    for (const auto& [port, frame] : received) {
      out.push_back(wire::Packet::parse(frame));
    }
    return out;
  }

  struct Rx {
    std::size_t port;
    wire::Frame frame;
  };
  std::vector<Rx> received;
};

/// A frame of `pool` holding a copy of `bytes` (FrameHandle::copy_of
/// copies into the process pool).
inline wire::FrameHandle copy_into(wire::FramePool& pool,
                                   std::span<const std::byte> bytes) {
  wire::FrameHandle frame = wire::FrameHandle::allocate(pool, bytes.size());
  if (!bytes.empty()) {
    std::memcpy(frame.writable(), bytes.data(), bytes.size());
  }
  return frame;
}

/// Builds a NetClone request packet the way a client would.
inline wire::Packet make_request(std::uint16_t client_id,
                                 std::uint32_t client_seq, std::uint16_t grp,
                                 std::uint8_t idx,
                                 std::uint32_t intrinsic_ns = 25000) {
  wire::NetCloneHeader nc;
  nc.type = wire::MsgType::kRequest;
  nc.clo = wire::CloneStatus::kNotCloned;
  nc.grp = grp;
  nc.idx = idx;
  nc.client_id = client_id;
  nc.client_seq = client_seq;
  wire::RpcRequest req;
  req.op = wire::RpcOp::kSynthetic;
  req.intrinsic_ns = intrinsic_ns;
  return wire::make_netclone_packet(
      wire::MacAddress::from_node(0x0200U + client_id),
      wire::MacAddress::broadcast(), host::client_ip(client_id),
      host::service_vip(),
      static_cast<std::uint16_t>(40000 + client_id), nc, req.to_frame());
}

/// Builds a NetClone response packet the way a server would.
inline wire::Packet make_response(ServerId sid, std::uint16_t qlen,
                                  const wire::Packet& request) {
  wire::Packet resp = request;
  resp.ip.src = host::server_ip(sid);
  resp.ip.dst = request.ip.src;
  resp.udp.src_port = wire::kNetClonePort;
  resp.udp.dst_port = request.udp.src_port;
  resp.nc().type = wire::MsgType::kResponse;
  resp.nc().sid = value_of(sid);
  resp.nc().state = qlen;
  resp.payload = wire::RpcResponse{}.to_frame();
  return resp;
}

/// Runs one packet through a switch program with fresh pass/metadata, as
/// the switch does: the packet is serialized, the program works on a
/// PacketView of the frame, and `pkt` is parsed back from the view's
/// frame.
inline pisa::PacketMetadata run_ingress(pisa::SwitchProgram& program,
                                        pisa::Pipeline& pipeline,
                                        wire::Packet& pkt,
                                        std::size_t ingress_port = 0,
                                        bool recirculated = false) {
  pisa::PacketMetadata md;
  md.ingress_port = ingress_port;
  md.is_recirculated = recirculated;
  pisa::PipelinePass pass{pipeline};
  wire::PacketView view{wire::FrameHandle{pkt.serialize()}};
  program.on_ingress(view, md, pass);
  pkt = wire::Packet::parse(view.frame().bytes());
  return md;
}

}  // namespace netclone::testing

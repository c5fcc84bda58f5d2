// Switch-program interface: what a P4 program is to the hardware.
#pragma once

#include <cstdint>
#include <optional>

#include "pisa/pipeline.hpp"
#include "wire/packet_view.hpp"

namespace netclone::pisa {

/// Per-packet intrinsic metadata, set by the program to steer the packet.
struct PacketMetadata {
  std::size_t ingress_port = 0;
  /// Unicast egress decision; ignored when a multicast group is set.
  std::optional<std::size_t> egress_port{};
  /// Packet replication engine group; all member ports get a copy.
  std::optional<std::uint16_t> multicast_group{};
  bool drop = false;
  /// True when this packet re-entered ingress through a loopback port.
  bool is_recirculated = false;
};

class SwitchProgram {
 public:
  virtual ~SwitchProgram() = default;

  /// Ingress control: reads and rewrites header fields of the frame in
  /// place through `pkt`, accesses pipeline resources through `pass`, and
  /// steers via `md`.
  virtual void on_ingress(wire::PacketView& pkt, PacketMetadata& md,
                          PipelinePass& pass) = 0;

  /// Human-readable program name for reports.
  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace netclone::pisa

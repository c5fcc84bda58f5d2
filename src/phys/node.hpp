// A node in the simulated topology: a host NIC endpoint or a switch.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "wire/framebuf.hpp"

namespace netclone::phys {

class Link;

class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Called by a link when a frame arrives on `port`. The handle may share
  /// its bytes with other in-flight copies of the frame (multicast); treat
  /// the bytes as immutable and mutate only via Packet's copy-on-write
  /// serialize path. (wire::Frame converts implicitly, so legacy callers
  /// passing owned vectors still work.)
  virtual void handle_frame(std::size_t port, wire::FrameHandle frame) = 0;

  /// Registers an egress link and returns the new port index. Called by
  /// Topology while wiring; a node's ingress port i receives from the peer
  /// wired at the same index.
  std::size_t attach_egress(Link* link);

  [[nodiscard]] std::size_t port_count() const { return egress_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

 protected:
  /// Transmits a frame out of `port`. Silently counts (and drops) frames
  /// sent on an unattached port — that models unplugged cables, not a bug.
  void send(std::size_t port, wire::FrameHandle frame);

  /// Hands a frame to `port`'s link now, to leave at `ready` (see
  /// Link::transmit_at): a sender that only waits out a fixed delay — a
  /// pipeline pass, a sender thread's per-packet cost — needs no event of
  /// its own. Per port, ready times must not decrease.
  void send_at(std::size_t port, SimTime ready, wire::FrameHandle frame);

  /// Takes back, from every egress link, the frames whose ready time has
  /// not passed (Link::retract_not_ready); returns how many hand-offs
  /// were removed.
  std::size_t retract_not_ready();

 private:
  std::string name_;
  std::vector<Link*> egress_;
};

}  // namespace netclone::phys

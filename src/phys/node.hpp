// A node in the simulated topology: a host NIC endpoint or a switch. Hosts
// write fresh frames into the pool their Topology hands them (pool());
// switches only rewrite frames, copying on write from a frame's own pool.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.hpp"
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

  /// Called by a link when the node picks up a frame that arrived on
  /// `port`: at wire arrival plus receive_cost(), behind the frames before
  /// it. The handle may share its bytes with other in-flight copies of the
  /// frame (multicast); treat the bytes as immutable and mutate only
  /// through wire::PacketView's copy-on-write setters. (wire::Frame
  /// converts implicitly, so legacy callers passing owned vectors still
  /// work.)
  virtual void handle_frame(std::size_t port, wire::FrameHandle frame) = 0;

  /// CPU time the node's receive thread spends on every frame before
  /// handle_frame sees it: a serial stage its ingress link models (see
  /// Link). Zero — the default — hands frames over at wire arrival; a
  /// switch and the LÆDGE coordinator, which models its own CPU, keep it.
  [[nodiscard]] virtual SimTime receive_cost() const {
    return SimTime::zero();
  }

  /// Registers an egress link and returns the new port index. Called by
  /// Topology while wiring; a node's ingress port i receives from the peer
  /// wired at the same index.
  std::size_t attach_egress(Link* link);

  /// Registers an ingress link (Link::connect_to) and returns
  /// receive_cost(). A node with a receive cost has one receive thread
  /// behind one link, so it takes a single ingress link: a second one
  /// throws CheckFailure.
  SimTime attach_ingress();

  [[nodiscard]] std::size_t port_count() const { return egress_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// The pool this node's fresh frames come from, handed over by
  /// Topology::add_node.
  [[nodiscard]] wire::FramePool& pool() const {
    NETCLONE_CHECK(pool_ != nullptr, "node was not added by a Topology");
    return *pool_;
  }

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
  friend class Topology;  // hands each node it adds its pool

  std::string name_;
  wire::FramePool* pool_ = nullptr;
  std::vector<Link*> egress_;
  std::size_t ingress_links_ = 0;
};

}  // namespace netclone::phys

#include "phys/node.hpp"

#include <utility>

#include "phys/link.hpp"

namespace netclone::phys {

std::size_t Node::attach_egress(Link* link) {
  egress_.push_back(link);
  return egress_.size() - 1;
}

void Node::send(std::size_t port, wire::FrameHandle frame) {
  if (port >= egress_.size() || egress_[port] == nullptr) {
    return;  // unplugged port: frame is lost
  }
  egress_[port]->transmit(std::move(frame));
}

void Node::send_at(std::size_t port, SimTime ready,
                   wire::FrameHandle frame) {
  if (port >= egress_.size() || egress_[port] == nullptr) {
    return;  // unplugged port: frame is lost
  }
  egress_[port]->transmit_at(ready, std::move(frame));
}

std::size_t Node::retract_not_ready() {
  std::size_t removed = 0;
  for (Link* link : egress_) {
    if (link != nullptr) {
      removed += link->retract_not_ready();
    }
  }
  return removed;
}

void Node::send_burst(std::size_t port,
                      std::span<wire::FrameHandle> frames) {
  if (port >= egress_.size() || egress_[port] == nullptr) {
    return;  // unplugged port: the whole burst is lost
  }
  Link* link = egress_[port];
  for (wire::FrameHandle& frame : frames) {
    link->transmit(std::move(frame));
  }
}

}  // namespace netclone::phys

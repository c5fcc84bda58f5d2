#include "phys/node.hpp"

#include <utility>

#include "common/check.hpp"
#include "phys/link.hpp"

namespace netclone::phys {

std::size_t Node::attach_egress(Link* link) {
  egress_.push_back(link);
  return egress_.size() - 1;
}

SimTime Node::attach_ingress() {
  const SimTime cost = receive_cost();
  NETCLONE_CHECK(cost == SimTime::zero() || ingress_links_ == 0,
                 "a node with a receive cost takes one ingress link");
  ++ingress_links_;
  return cost;
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

}  // namespace netclone::phys

// Topology: owns nodes and links and wires them into duplex connections.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "phys/link.hpp"
#include "phys/node.hpp"
#include "sim/simulator.hpp"

namespace netclone::phys {

/// The pair of port indices created by a duplex connection:
/// `first` is the port on node a, `second` the port on node b.
struct DuplexPorts {
  std::size_t port_on_a = 0;
  std::size_t port_on_b = 0;
  Link* a_to_b = nullptr;
  Link* b_to_a = nullptr;
};

class Topology {
 public:
  explicit Topology(sim::Simulator& sim) : sim_(sim) {}

  /// Constructs a node of type T owned by the topology.
  template <typename T, typename... Args>
  T& add_node(Args&&... args) {
    auto node = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *node;
    nodes_.push_back(std::move(node));
    return ref;
  }

  /// Creates a full-duplex connection between two nodes.
  DuplexPorts connect(Node& a, Node& b, LinkParams params = {});

  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const {
    return links_;
  }

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace netclone::phys

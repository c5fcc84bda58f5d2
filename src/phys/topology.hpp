// Topology: owns nodes and links and wires them into duplex connections,
// and hands every node it adds the frame pool it allocates from.
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
  /// The nodes added here allocate from `pool`, which must outlive every
  /// frame they send. harness::Testbed passes its own; the default, the
  /// process pool, serves rigs built outside any experiment.
  explicit Topology(sim::Simulator& sim,
                    wire::FramePool& pool = wire::FramePool::instance())
      : sim_(sim), pool_(pool) {}

  /// Constructs a node of type T owned by the topology, with its pool.
  template <typename T, typename... Args>
  T& add_node(Args&&... args) {
    auto node = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *node;
    ref.pool_ = &pool_;
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
  wire::FramePool& pool_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace netclone::phys

#include "phys/topology.hpp"

namespace netclone::phys {

DuplexPorts Topology::connect(Node& a, Node& b, LinkParams params) {
  auto a_to_b = std::make_unique<Link>(sim_, params);
  auto b_to_a = std::make_unique<Link>(sim_, params);

  DuplexPorts ports;
  ports.port_on_a = a.attach_egress(a_to_b.get());
  ports.port_on_b = b.attach_egress(b_to_a.get());
  // Frames a sends out of port_on_a arrive at b's port_on_b and vice versa,
  // as with a real cable between two interfaces.
  a_to_b->connect_to(&b, ports.port_on_b);
  b_to_a->connect_to(&a, ports.port_on_a);

  ports.a_to_b = a_to_b.get();
  ports.b_to_a = b_to_a.get();
  links_.push_back(std::move(a_to_b));
  links_.push_back(std::move(b_to_a));
  return ports;
}

}  // namespace netclone::phys

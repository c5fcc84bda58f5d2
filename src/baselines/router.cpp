#include "baselines/router.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace netclone::baselines {

RouterProgram::RouterProgram(pisa::Pipeline& pipeline, std::size_t num_ports,
                             std::size_t route_capacity)
    : num_ports_(num_ports),
      routes_(pipeline, "LpmRoutes", 0, route_capacity) {
  NETCLONE_CHECK(num_ports >= 1, "router needs at least one port");
  NETCLONE_CHECK(route_capacity >= 1, "router needs route capacity");
}

void RouterProgram::check_ports(const std::vector<std::size_t>& ports) const {
  NETCLONE_CHECK(!ports.empty(), "route needs at least one next hop");
  for (const std::size_t port : ports) {
    NETCLONE_CHECK(port < num_ports_,
                   "route names port " + std::to_string(port) +
                       " but the router was sized for " +
                       std::to_string(num_ports_) + " ports");
  }
}

void RouterProgram::add_prefix(wire::Ipv4Address prefix, std::uint8_t len,
                               std::size_t port) {
  add_ecmp_prefix(prefix, len, {port});
}

void RouterProgram::add_ecmp_prefix(wire::Ipv4Address prefix,
                                    std::uint8_t len,
                                    std::vector<std::size_t> ports) {
  check_ports(ports);
  routes_.insert(prefix, len, NextHops{std::move(ports)});
}

void RouterProgram::on_ingress(wire::PacketView& pkt,
                               pisa::PacketMetadata& md,
                               pisa::PipelinePass& pass) {
  const NextHops* hops = routes_.find(pass, pkt.ip_dst());
  if (hops == nullptr) {
    ++stats_.no_route_drops;
    md.drop = true;
    return;
  }
  // ECMP by source address: one sender's packets stay on one path, so
  // per-flow ordering survives the parallel trunks.
  const std::size_t port =
      hops->ports.size() == 1
          ? hops->ports[0]
          : hops->ports[crc32_u32(pkt.ip_src().value) % hops->ports.size()];
  ++stats_.routed;
  md.egress_port = port;
}

}  // namespace netclone::baselines

#include "baselines/l3_program.hpp"

namespace netclone::baselines {

L3ForwardProgram::L3ForwardProgram(pisa::Pipeline& pipeline)
    : fwd_table_(pipeline, "FwdT", 0, /*capacity=*/1024, /*key_bytes=*/4,
                 /*value_bytes=*/2) {}

void L3ForwardProgram::add_route(wire::Ipv4Address ip, std::size_t port) {
  fwd_table_.insert(ip.value, port);
}

void L3ForwardProgram::on_ingress(wire::PacketView& pkt,
                                  pisa::PacketMetadata& md,
                                  pisa::PipelinePass& pass) {
  const auto* port = fwd_table_.find(pass, pkt.ip_dst().value);
  if (!port) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  ++stats_.forwarded;
  md.egress_port = *port;
}

}  // namespace netclone::baselines

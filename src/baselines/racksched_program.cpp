#include "baselines/racksched_program.hpp"

namespace netclone::baselines {

RackSchedProgram::RackSchedProgram(pisa::Pipeline& pipeline,
                                   std::size_t max_servers,
                                   std::uint64_t rng_seed)
    : random_(pipeline, "PRNG", 0, rng_seed),
      load_table_(pipeline, "LoadT", 1, max_servers),
      shadow_load_table_(pipeline, "ShadowLoadT", 2, max_servers),
      addr_table_(pipeline, "AddrT", 3, max_servers, /*key_bytes=*/1,
                  /*value_bytes=*/4),
      fwd_table_(pipeline, "FwdT", 4, /*capacity=*/1024, /*key_bytes=*/4,
                 /*value_bytes=*/2) {}

void RackSchedProgram::add_server(ServerId sid, wire::Ipv4Address ip,
                                  std::size_t port) {
  addr_table_.insert(value_of(sid), ip);
  fwd_table_.insert(ip.value, port);
  num_servers_ = std::max<std::size_t>(num_servers_, value_of(sid) + 1U);
}

void RackSchedProgram::add_route(wire::Ipv4Address ip, std::size_t port) {
  fwd_table_.insert(ip.value, port);
}

void RackSchedProgram::on_ingress(wire::PacketView& pkt,
                                  pisa::PacketMetadata& md,
                                  pisa::PipelinePass& pass) {
  if (!pkt.has_netclone()) {
    const auto* port = fwd_table_.find(pass, pkt.ip_dst().value);
    if (!port) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    md.egress_port = *port;
    return;
  }
  if (wire::is_request(pkt.type())) {
    handle_request(pkt, md, pass);
    return;
  }
  if (pkt.type() == wire::MsgType::kCancel) {
    const auto* out = fwd_table_.find(pass, pkt.ip_dst().value);
    if (!out) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    md.egress_port = *out;
    return;
  }
  // Response: learn the piggybacked queue length, then route to the client.
  ++stats_.responses;
  const std::uint8_t sid = pkt.sid();
  if (sid < load_table_.size()) {
    load_table_.write(pass, sid, pkt.state());
    shadow_load_table_.write(pass, sid, pkt.state());
  }
  const auto* port = fwd_table_.find(pass, pkt.ip_dst().value);
  if (!port) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  md.egress_port = *port;
}

void RackSchedProgram::handle_request(wire::PacketView& pkt,
                                      pisa::PacketMetadata& md,
                                      pisa::PipelinePass& pass) {
  ++stats_.requests;
  if (num_servers_ == 0) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  // Power of two choices: two distinct uniform samples from the hardware
  // PRNG (one 32-bit draw split in half on the ASIC).
  const auto n = static_cast<std::uint32_t>(num_servers_);
  const std::uint32_t r1 = random_.next_below(pass, n);
  std::uint32_t r2 = n > 1 ? random_.next_below(pass, n - 1) : 0;
  if (n > 1 && r2 >= r1) {
    ++r2;
  }
  const std::uint16_t l1 = load_table_.read(pass, r1);
  const std::uint16_t l2 = shadow_load_table_.read(pass, r2);
  const std::uint32_t winner = l2 < l1 ? r2 : r1;
  if (l2 < l1) {
    ++stats_.second_choice_wins;
  }
  const auto* ip = addr_table_.find(pass, winner);
  if (!ip) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  pkt.set_ip_dst(*ip);
  const auto* port = fwd_table_.find(pass, ip->value);
  if (!port) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  md.egress_port = *port;
}

}  // namespace netclone::baselines

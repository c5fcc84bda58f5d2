#include "baselines/netclone_racksched.hpp"

#include "common/check.hpp"

namespace netclone::baselines {

NetCloneRackSchedProgram::NetCloneRackSchedProgram(
    pisa::Pipeline& pipeline, core::NetCloneConfig config)
    : config_(config),
      seq_(pipeline, "SEQ", 0, 0U),
      grp_table_(pipeline, "GrpT", 1, config.max_groups, /*key_bytes=*/2,
                 /*value_bytes=*/2),
      load_table_(pipeline, "LoadT", 2, config.max_servers),
      shadow_load_table_(pipeline, "ShadowLoadT", 3, config.max_servers),
      addr_table_(pipeline, "AddrT", 4, config.max_servers, /*key_bytes=*/1,
                  /*value_bytes=*/6),
      hash_unit_(pipeline, "FilterHash", 5),
      fwd_table_(pipeline, "FwdT", 6, /*capacity=*/1024, /*key_bytes=*/4,
                 /*value_bytes=*/2) {
  // JSQ picks a (possibly different) destination per packet, which would
  // scatter the fragments of a multi-packet request across servers; the
  // integration has no cloned-request/affinity table, so reject the combo
  // instead of silently breaking reassembly.
  NETCLONE_CHECK(!config_.enable_multipacket,
                 "multi-packet support is not implemented for the "
                 "RackSched integration");
  filter_tables_.reserve(config_.num_filter_tables);
  for (std::size_t i = 0; i < config_.num_filter_tables; ++i) {
    filter_tables_.push_back(
        std::make_unique<pisa::RegisterArray<std::uint32_t>>(
            pipeline, "FilterT" + std::to_string(i), 5,
            config_.filter_slots));
  }
}

void NetCloneRackSchedProgram::add_server(ServerId sid, wire::Ipv4Address ip,
                                          std::size_t port,
                                          std::uint16_t clone_mcast_group) {
  addr_table_.insert(value_of(sid), AddrEntry{ip, clone_mcast_group});
  fwd_table_.insert(ip.value, port);
}

void NetCloneRackSchedProgram::install_groups(
    const std::vector<core::GroupPair>& groups) {
  grp_table_.clear_entries();
  for (std::size_t id = 0; id < groups.size(); ++id) {
    grp_table_.insert(id, groups[id]);
  }
}

void NetCloneRackSchedProgram::add_route(wire::Ipv4Address ip,
                                         std::size_t port) {
  fwd_table_.insert(ip.value, port);
}

void NetCloneRackSchedProgram::on_ingress(wire::PacketView& pkt,
                                          pisa::PacketMetadata& md,
                                          pisa::PipelinePass& pass) {
  if (!pkt.has_netclone() || pkt.type() == wire::MsgType::kCancel) {
    forward_to(pkt.ip_dst(), md, pass);
    return;
  }
  if (wire::is_request(pkt.type())) {
    handle_request(pkt, md, pass);
  } else {
    handle_response(pkt, md, pass);
  }
}

void NetCloneRackSchedProgram::handle_request(wire::PacketView& pkt,
                                              pisa::PacketMetadata& md,
                                              pisa::PipelinePass& pass) {
  if (md.is_recirculated) {
    pkt.set_clo(wire::CloneStatus::kClonedCopy);
    ++stats_.recirculated_clones;
    const auto* entry = addr_table_.find(pass, pkt.sid());
    if (!entry) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    pkt.set_ip_dst(entry->ip);
    forward_to(entry->ip, md, pass);
    return;
  }

  ++stats_.requests;
  pkt.set_req_id(seq_.execute(pass, [](std::uint32_t& c) { return ++c; }));

  const auto* pair = grp_table_.find(pass, pkt.grp());
  if (!pair) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }

  const std::uint16_t l1 = load_table_.read(pass, pair->srv1);
  const std::uint16_t l2 = shadow_load_table_.read(pass, pair->srv2);

  if (l1 == 0 && l2 == 0) {
    // Both candidate queues empty: clone as plain NetClone would.
    pkt.set_clo(wire::CloneStatus::kClonedOriginal);
    pkt.set_sid(pair->srv2);
    const auto* entry1 = addr_table_.find(pass, pair->srv1);
    if (!entry1) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    pkt.set_ip_dst(entry1->ip);
    ++stats_.cloned_requests;
    md.multicast_group = entry1->mcast_group;
    return;
  }

  // RackSched fallback: join the shorter tracked queue (ties -> srv1).
  ++stats_.jsq_fallbacks;
  const std::uint8_t winner = l2 < l1 ? pair->srv2 : pair->srv1;
  const auto* entry = addr_table_.find(pass, winner);
  if (!entry) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  pkt.set_ip_dst(entry->ip);
  forward_to(entry->ip, md, pass);
}

void NetCloneRackSchedProgram::handle_response(wire::PacketView& pkt,
                                               pisa::PacketMetadata& md,
                                               pisa::PipelinePass& pass) {
  ++stats_.responses;
  const std::uint8_t sid = pkt.sid();
  if (sid < load_table_.size()) {
    load_table_.write(pass, sid, pkt.state());
    shadow_load_table_.write(pass, sid, pkt.state());
  }
  if (pkt.clo() != wire::CloneStatus::kNotCloned &&
      config_.enable_filtering) {
    const std::size_t table = pkt.idx() % config_.num_filter_tables;
    const std::uint32_t req_id = pkt.req_id();
    const std::uint32_t slot = hash_unit_.hash32(
        pass, req_id, static_cast<std::uint32_t>(config_.filter_slots));
    const bool drop = filter_tables_[table]->execute(
        pass, slot, [req_id](std::uint32_t& cell) {
          if (cell == req_id) {
            cell = 0;
            return true;
          }
          cell = req_id;
          return false;
        });
    if (drop) {
      ++stats_.filtered_responses;
      md.drop = true;
      return;
    }
  }
  forward_to(pkt.ip_dst(), md, pass);
}

void NetCloneRackSchedProgram::forward_to(wire::Ipv4Address ip,
                                          pisa::PacketMetadata& md,
                                          pisa::PipelinePass& pass) {
  const auto* port = fwd_table_.find(pass, ip.value);
  if (!port) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  md.egress_port = *port;
}

}  // namespace netclone::baselines

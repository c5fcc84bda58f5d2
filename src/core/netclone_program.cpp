#include "core/netclone_program.hpp"

#include "common/check.hpp"

namespace netclone::core {
namespace {

/// FwdT key: the 32-bit destination address widened to the table key type.
[[nodiscard]] std::uint64_t route_key(wire::Ipv4Address ip) {
  return static_cast<std::uint64_t>(ip.value);
}

}  // namespace

NetCloneProgram::NetCloneProgram(pisa::Pipeline& pipeline,
                                 NetCloneConfig config, AggChainRole role)
    : config_(config),
      role_(role),
      seq_(pipeline, "SEQ", 0, 0U),
      grp_table_(pipeline, "GrpT", 1, config.max_groups, /*key_bytes=*/2,
                 /*value_bytes=*/2),
      addr_table_(pipeline, "AddrT", 2, config.max_servers, /*key_bytes=*/1,
                  /*value_bytes=*/6),
      state_table_(pipeline, "StateT", 3, config.max_servers),
      shadow_table_(pipeline, "ShadowT", 4, config.max_servers),
      hash_unit_(pipeline, "FilterHash", 5),
      fwd_table_(pipeline, "FwdT", 6, /*capacity=*/1024, /*key_bytes=*/4,
                 /*value_bytes=*/2),
      chain_next_(role.chain_next_port) {
  NETCLONE_CHECK(config_.num_filter_tables >= 1 &&
                     config_.num_filter_tables <= 8,
                 "filter table count out of range");
  NETCLONE_CHECK(config_.filter_slots > 0, "filter tables need slots");
  NETCLONE_CHECK(!config_.enable_multipacket ||
                     config_.id_mode == RequestIdMode::kClientTuple,
                 "multi-packet support needs client-tuple request ids: "
                 "fragments must share one REQ_ID (§3.7)");
  NETCLONE_CHECK(role_.chain_length >= 1 &&
                     role_.replica_index < role_.chain_length,
                 "chain role out of range");
  NETCLONE_CHECK(role_.is_tail() == !role_.chain_next_port.has_value(),
                 "every non-tail replica needs chain_next_port (and the "
                 "tail must not have one)");
  NETCLONE_CHECK(role_.chain_length == 1 ||
                     config_.id_mode == RequestIdMode::kClientTuple,
                 "a replicated chain needs client-tuple request ids: "
                 "replicated deciders cannot share a SEQ register");
  filter_tables_.reserve(config_.num_filter_tables);
  for (std::size_t i = 0; i < config_.num_filter_tables; ++i) {
    filter_tables_.push_back(
        std::make_unique<pisa::RegisterArray<std::uint32_t>>(
            pipeline, "FilterT" + std::to_string(i), 5,
            config_.filter_slots));
  }
  if (config_.enable_multipacket) {
    NETCLONE_CHECK(config_.cloned_req_slots > 0,
                   "cloned-request table needs slots");
    cloned_req_table_ =
        std::make_unique<pisa::RegisterArray<std::uint32_t>>(
            pipeline, "ClonedReqT", 5, config_.cloned_req_slots);
  }
}

void NetCloneProgram::add_server(ServerId sid, wire::Ipv4Address ip,
                                 std::size_t port,
                                 std::uint16_t clone_mcast_group) {
  NETCLONE_CHECK(value_of(sid) < config_.max_servers,
                 "server id exceeds table sizing");
  addr_table_.insert(value_of(sid), AddrEntry{ip, clone_mcast_group});
  fwd_table_.insert(route_key(ip), port);
}

void NetCloneProgram::install_groups(const std::vector<GroupPair>& groups) {
  grp_table_.clear_entries();
  for (std::size_t id = 0; id < groups.size(); ++id) {
    grp_table_.insert(id, groups[id]);
  }
}

void NetCloneProgram::add_route(wire::Ipv4Address ip, std::size_t port) {
  fwd_table_.insert(route_key(ip), port);
}

void NetCloneProgram::remove_server(ServerId sid) {
  addr_table_.erase(value_of(sid));
  // Groups referencing the failed server stay installed but now miss on
  // AddrT; the operator is expected to re-install a shrunk group set and
  // update the clients' group count (§3.6).
}

void NetCloneProgram::inject_stale_filter_entry(std::size_t table,
                                                std::uint32_t req_id) {
  NETCLONE_CHECK(table < filter_tables_.size(), "filter table out of range");
  NETCLONE_CHECK(req_id != 0, "0 means empty; not a plantable fingerprint");
  const std::uint32_t slot = filter_hash(req_id, config_.filter_slots);
  filter_tables_[table]->poke_write(slot, req_id);
  ++stats_.injected_stale_entries;
}

std::uint32_t NetCloneProgram::filter_hash(std::uint32_t req_id,
                                           std::size_t slots) {
  return crc32_u32(req_id) % static_cast<std::uint32_t>(slots);
}

std::uint32_t NetCloneProgram::client_tuple_id(std::uint16_t client_id,
                                               std::uint32_t client_seq) {
  const std::uint64_t tuple =
      static_cast<std::uint64_t>(client_id) << 32 | client_seq;
  // Mixed so sequential per-client ids spread over the filter tables; a
  // Lamport-style identity that retransmissions and fragments share.
  const std::uint64_t mixed = mix64(tuple);
  const auto id = static_cast<std::uint32_t>(mixed ^ (mixed >> 32));
  return id == 0 ? 1 : id;  // 0 means "empty slot" in the filter tables
}

void NetCloneProgram::assign_request_id(wire::NetCloneHeader& nc,
                                        pisa::PipelinePass& pass) {
  if (config_.id_mode == RequestIdMode::kClientTuple) {
    // §3.7 protocol support: derive the id from the client tuple so a TCP
    // retransmission keeps its id; the SEQ register is not touched.
    nc.req_id = client_tuple_id(nc.client_id, nc.client_seq);
    return;
  }
  // Algorithm 1, lines 2-3.
  nc.req_id = seq_.execute(pass, [](std::uint32_t& c) { return ++c; });
}

void NetCloneProgram::on_ingress(wire::Packet& pkt, pisa::PacketMetadata& md,
                                 pisa::PipelinePass& pass) {
  if (!pkt.has_netclone()) {
    l3_forward(pkt, md, pass);
    return;
  }
  wire::NetCloneHeader& nc = pkt.nc();
  // Multi-rack scoping (§3.7): NetClone logic belongs to the switch that
  // stamped the request. A non-zero SWITCH_ID of another switch means the
  // packet is just passing through — plain routing.
  if (nc.switch_id != 0 && nc.switch_id != config_.switch_id) {
    ++stats_.foreign_packets;
    l3_forward(pkt, md, pass);
    return;
  }
  if (nc.is_chain_sync()) {
    handle_chain_sync(nc, md);
    return;
  }
  if (nc.is_cancel()) {
    // Cancellation is an end-to-end affair between client and server; the
    // switch just routes it.
    l3_forward(pkt, md, pass);
    return;
  }
  if (nc.is_request()) {
    handle_request(pkt, md, pass);
  } else {
    handle_response(pkt, md, pass);
  }
}

void NetCloneProgram::handle_request(wire::Packet& pkt,
                                     pisa::PacketMetadata& md,
                                     pisa::PipelinePass& pass) {
  wire::NetCloneHeader& nc = pkt.nc();

  if (md.is_recirculated) {
    // Algorithm 1, lines 11-13: the loopback copy. Mark it as the cloned
    // duplicate and steer it to the second candidate recorded in SID.
    NETCLONE_CHECK(nc.clo == wire::CloneStatus::kClonedOriginal,
                   "recirculated request must carry CLO=1");
    ++stats_.recirculated_clones;
    nc.clo = wire::CloneStatus::kClonedCopy;
    const auto* entry = addr_table_.find(pass, nc.sid);
    if (!entry) {
      ++stats_.missing_route_drops;  // candidate removed mid-flight (§3.6)
      md.drop = true;
      return;
    }
    pkt.ip.dst = entry->ip;
    const auto* port = fwd_table_.find(pass, route_key(entry->ip));
    if (!port) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    md.egress_port = *port;
    return;
  }

  if (nc.clo != wire::CloneStatus::kNotCloned) {
    // A fresh (non-recirculated) request must carry CLO=0; anything else
    // is a malformed packet and is discarded rather than cloned twice.
    md.drop = true;
    return;
  }
  if (nc.switch_id == 0) {
    nc.switch_id = config_.switch_id;  // stamp the deciding switch (§3.7)
  }
  assign_request_id(nc, pass);

  if (nc.is_write()) {
    // §5.5: writes are never cloned — coordination belongs to the
    // replication protocol. Route to the group's first candidate.
    ++stats_.write_requests;
    const auto* pair = grp_table_.find(pass, nc.grp);
    if (!pair) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    const auto* entry = addr_table_.find(pass, pair->srv1);
    if (!entry) {
      ++stats_.missing_route_drops;
      md.drop = true;
      return;
    }
    pkt.ip.dst = entry->ip;
    l3_forward(pkt, md, pass);
    return;
  }

  ++stats_.requests;

  if (config_.enable_multipacket && nc.frag_idx > 0) {
    handle_continuation_fragment(pkt, md, pass);
    return;
  }

  // Line 4: group id -> ordered candidate pair.
  const auto* pair = grp_table_.find(pass, nc.grp);
  if (!pair) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }

  // Line 5: the non-cloned destination is always the first candidate.
  const auto* entry1 = addr_table_.find(pass, pair->srv1);
  if (!entry1) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  pkt.ip.dst = entry1->ip;

  // Line 6: both candidates idle? StateT serves srv1, the shadow copy
  // serves srv2 — one register array cannot be read twice in a pass. On
  // a replica the read is relaxed: updates still in the chain cost at
  // most a missed or wasted clone, never correctness.
  const std::uint16_t s1 = state_table_.read(pass, pair->srv1);
  const std::uint16_t s2 = shadow_table_.read(pass, pair->srv2);

  if (config_.enable_cloning && s1 == 0 && s2 == 0) {
    // Lines 7-9: clone. SID carries the second candidate for the
    // recirculated copy; the PRE group sends the original to srv1's port
    // and the copy to the loopback port.
    nc.clo = wire::CloneStatus::kClonedOriginal;
    nc.sid = pair->srv2;
    ++stats_.cloned_requests;
    if (config_.enable_multipacket && nc.multi_packet()) {
      // §3.7: remember the cloned-but-unfinished request so that later
      // fragments clone regardless of the tracked states.
      const std::uint32_t slot =
          filter_hash(nc.req_id,
                      config_.cloned_req_slots);  // reuses the CRC profile
      cloned_req_table_->write(pass, slot, nc.req_id);
    }
    md.multicast_group = entry1->mcast_group;
    return;
  }

  const auto* port = fwd_table_.find(pass, route_key(entry1->ip));
  if (!port) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  md.egress_port = *port;
}

void NetCloneProgram::handle_continuation_fragment(
    wire::Packet& pkt, pisa::PacketMetadata& md, pisa::PipelinePass& pass) {
  wire::NetCloneHeader& nc = pkt.nc();
  ++stats_.continuation_fragments;

  // Affinity: the client keeps the group id constant across fragments, so
  // the first candidate is the same server fragment 0 was sent to.
  const auto* pair = grp_table_.find(pass, nc.grp);
  if (!pair) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  const auto* entry1 = addr_table_.find(pass, pair->srv1);
  if (!entry1) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  pkt.ip.dst = entry1->ip;

  // Was fragment 0 cloned? One RMW: match, and clear on the last fragment
  // so the slot frees as soon as the request finishes.
  const std::uint32_t slot =
      filter_hash(nc.req_id, config_.cloned_req_slots);
  const bool was_cloned = cloned_req_table_->execute(
      pass, slot,
      [rid = nc.req_id, last = nc.last_fragment()](std::uint32_t& cell) {
        if (cell != rid) {
          return false;
        }
        if (last) {
          cell = 0;
        }
        return true;
      });

  if (was_cloned) {
    nc.clo = wire::CloneStatus::kClonedOriginal;
    nc.sid = pair->srv2;
    ++stats_.cloned_fragments;
    md.multicast_group = entry1->mcast_group;
    return;
  }
  const auto* port = fwd_table_.find(pass, route_key(entry1->ip));
  if (!port) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  md.egress_port = *port;
}

void NetCloneProgram::handle_response(wire::Packet& pkt,
                                      pisa::PacketMetadata& md,
                                      pisa::PipelinePass& pass) {
  wire::NetCloneHeader& nc = pkt.nc();
  if (!chain_member_) {
    // Stale in-flight traffic around a crash/rejoin: a non-member must
    // not touch replicated state or enact verdicts — the controller
    // resyncs it before re-admission.
    ++stats_.non_member_response_drops;
    md.drop = true;
    return;
  }
  ++stats_.responses;

  // Lines 15-16: absorb the piggybacked state into both tables so they
  // stay consistent. Every replica applies the identical write in chain
  // order, so replicated StateT/ShadowT converge cell by cell.
  if (nc.sid < config_.max_servers) {
    state_table_.write(pass, nc.sid, nc.state);
    shadow_table_.write(pass, nc.sid, nc.state);
  }

  // Lines 17-25: fingerprint filtering, only for responses of cloned
  // requests. Every replica replays the same store-or-clear RMW; because
  // responses enter at the head and the chain links preserve order, all
  // replicas compute the same verdict for every response.
  bool duplicate = false;
  if (nc.cloned() && config_.enable_filtering) {
    // §3.7 multi-packet: response fragments share REQ_ID, so each ordinal
    // is steered to its own "ordered" filter table (idx + frag_idx).
    // Deploy at least as many tables as the largest response fragment
    // count, or same-id fragments would collide in one slot.
    const std::size_t ordinal =
        config_.enable_multipacket ? nc.frag_idx : 0U;
    const std::size_t table =
        (nc.idx + ordinal) % config_.num_filter_tables;  // bad IDX tolerated
    const std::uint32_t slot = hash_unit_.hash32(
        pass, nc.req_id, static_cast<std::uint32_t>(config_.filter_slots));
    duplicate = filter_tables_[table]->execute(
        pass, slot, [rid = nc.req_id](std::uint32_t& cell) {
          if (cell == rid) {
            cell = 0;   // slower duplicate: clear the slot for reuse
            return true;
          }
          cell = rid;   // faster response (or collision): overwrite (§3.5)
          return false;
        });
    if (duplicate) {
      ++stats_.filter_hits;
    } else {
      ++stats_.fingerprints_stored;
    }
  }

  if (chain_next_) {
    // Upstream replicas relay everything — the verdict is only enacted
    // once, at the live tail, so exactly-once stays a single switch's
    // call even while fail-over reshapes the chain.
    ++stats_.chain_forwards;
    md.egress_port = *chain_next_;
    return;
  }
  if (duplicate) {
    ++stats_.filtered_responses;
    md.drop = true;
    return;
  }
  l3_forward(pkt, md, pass);
}

void NetCloneProgram::handle_chain_sync(const wire::NetCloneHeader& nc,
                                        pisa::PacketMetadata& md) {
  AggChainSyncRecord* record =
      sync_hub_ != nullptr ? sync_hub_->find(nc.req_id) : nullptr;
  if (record == nullptr) {
    // Only a controller mints markers, and only for a record it created
    // in the tier's hub. Anything else is wire input this switch cannot
    // act on.
    ++stats_.unusable_sync_markers;
    md.drop = true;
    return;
  }
  ++stats_.chain_sync_markers;
  if (!record->filled) {
    // First replica on the marker's walk: the snapshot cut. Everything
    // this replica applied before the marker is in the snapshot; every
    // later update follows the marker down the same FIFO links — the
    // sequenced delta stream downstream replicas replay after install.
    fill_sync_record(*record);
    if (record->filler_next_port) {
      // Admit: the old tail adopts the rejoiner as its successor in the
      // marker's own pipeline pass, so the marker is the FIRST frame on
      // the new link and every forwarded response rides behind it.
      chain_next_ = record->filler_next_port;
    }
    if (nc.req_id > last_sync_gen_) {
      last_sync_gen_ = nc.req_id;  // own state IS this snapshot
    }
  } else if (nc.req_id <= last_sync_gen_) {
    // Already absorbed a sync at least this fresh — installing would
    // clobber newer state with an older cut.
    ++stats_.chain_sync_stale;
  } else {
    install_sync_record(*record);
    last_sync_gen_ = nc.req_id;
    if (record->admit_target == role_.replica_index) {
      // Rejoin complete: become the tail. The delta stream queued behind
      // the marker replays, in chain order, everything the snapshot
      // missed.
      chain_member_ = true;
      chain_next_ = std::nullopt;
      ++stats_.chain_sync_consumed;
      md.drop = true;
      return;
    }
  }
  if (chain_next_) {
    md.egress_port = *chain_next_;
    return;
  }
  ++stats_.chain_sync_consumed;
  md.drop = true;
}

void NetCloneProgram::fill_sync_record(AggChainSyncRecord& record) {
  ++stats_.chain_sync_snapshots_filled;
  record.state.resize(config_.max_servers);
  record.shadow.resize(config_.max_servers);
  for (std::size_t i = 0; i < config_.max_servers; ++i) {
    record.state[i] = state_table_.peek(i);
    record.shadow[i] = shadow_table_.peek(i);
  }
  record.filters.resize(filter_tables_.size());
  for (std::size_t t = 0; t < filter_tables_.size(); ++t) {
    record.filters[t].resize(config_.filter_slots);
    for (std::size_t slot = 0; slot < config_.filter_slots; ++slot) {
      record.filters[t][slot] = filter_tables_[t]->peek(slot);
    }
  }
  record.filled = true;
}

void NetCloneProgram::install_sync_record(const AggChainSyncRecord& record) {
  ++stats_.chain_sync_installs;
  NETCLONE_CHECK(record.state.size() == config_.max_servers &&
                     record.filters.size() == filter_tables_.size(),
                 "sync record shape does not match this replica's tables");
  for (std::size_t i = 0; i < config_.max_servers; ++i) {
    state_table_.poke_write(i, record.state[i]);
    shadow_table_.poke_write(i, record.shadow[i]);
  }
  for (std::size_t t = 0; t < filter_tables_.size(); ++t) {
    for (std::size_t slot = 0; slot < config_.filter_slots; ++slot) {
      filter_tables_[t]->poke_write(slot, record.filters[t][slot]);
      if (record.filters[t][slot] != 0) {
        ++stats_.chain_sync_fingerprints_adopted;
      }
    }
  }
}

void NetCloneProgram::l3_forward(const wire::Packet& pkt,
                                 pisa::PacketMetadata& md,
                                 pisa::PipelinePass& pass) {
  const auto* port = fwd_table_.find(pass, route_key(pkt.ip.dst));
  if (!port) {
    ++stats_.missing_route_drops;
    md.drop = true;
    return;
  }
  md.egress_port = *port;
}

std::uint32_t NetCloneProgram::peek_filter_slot(std::size_t table,
                                                std::size_t slot) const {
  NETCLONE_CHECK(table < filter_tables_.size(), "filter table out of range");
  return filter_tables_[table]->peek(slot);
}

std::uint16_t NetCloneProgram::peek_state(ServerId sid) const {
  return state_table_.peek(value_of(sid));
}

std::uint64_t NetCloneProgram::soft_state_digest() const {
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  const auto fold = [&digest](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      digest ^= (value >> shift) & 0xFFU;
      digest *= 0x100000001B3ULL;
    }
  };
  for (std::size_t i = 0; i < config_.max_servers; ++i) {
    fold(state_table_.peek(i));
    fold(shadow_table_.peek(i));
  }
  for (const auto& table : filter_tables_) {
    for (std::size_t slot = 0; slot < config_.filter_slots; ++slot) {
      fold(table->peek(slot));
    }
  }
  return digest;
}

std::uint64_t NetCloneProgram::filter_occupancy() const {
  std::uint64_t occupied = 0;
  for (const auto& table : filter_tables_) {
    for (std::size_t slot = 0; slot < config_.filter_slots; ++slot) {
      if (table->peek(slot) != 0) {
        ++occupied;
      }
    }
  }
  return occupied;
}

}  // namespace netclone::core

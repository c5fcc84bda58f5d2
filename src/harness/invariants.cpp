#include "harness/invariants.hpp"

#include <sstream>

#include "common/hash.hpp"
#include "harness/experiment.hpp"
#include "harness/multirack.hpp"
#include "wire/framebuf.hpp"

namespace netclone::harness {

namespace {

/// Appends "name: detail" when `bad` holds.
void check(InvariantReport& report, bool bad, const std::string& what) {
  if (bad) {
    report.violations.push_back(what);
  }
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

// ---- shared audit sections (every Testbed) --------------------------------

void audit_clients(InvariantReport& report,
                   const std::vector<host::Client*>& clients) {
  // Client accounting: exactly-once completion.
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const host::Client& client = *clients[i];
    const host::ClientStats& cs = client.stats();
    const host::Client::Audit audit = client.audit();
    const std::string who = "client c" + std::to_string(i);
    check(report, audit.completed_entries != cs.completed,
          who + ": completed stat " + u64(cs.completed) +
              " != completed request entries " +
              u64(audit.completed_entries) +
              " (a request completed twice or a completion went " +
              "unrecorded)");
    check(report,
          cs.requests_sent !=
              audit.completed_entries + audit.incomplete_entries,
          who + ": requests_sent " + u64(cs.requests_sent) +
              " != completed " + u64(audit.completed_entries) +
              " + incomplete " + u64(audit.incomplete_entries) +
              " (a request vanished without being accounted)");
  }
}

void audit_servers(InvariantReport& report,
                   const std::vector<host::Server*>& servers) {
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const host::Server& server = *servers[i];
    const std::string who = "server s" + std::to_string(i);
    if (server.crashed()) {
      check(report, server.queue_depth() != 0,
            who + ": crashed but queue depth is " +
                u64(server.queue_depth()));
      check(report, server.busy_workers() != 0,
            who + ": crashed but busy_workers is " +
                u64(server.busy_workers()));
    }
  }
}

void audit_links(
    InvariantReport& report,
    const std::vector<std::pair<std::string, phys::Link*>>& links) {
  for (const auto& [name, link] : links) {
    check(report, link->queued() > link->params().queue_capacity,
          "link " + name + ": drop-tail occupancy " + u64(link->queued()) +
              " exceeds capacity " + u64(link->params().queue_capacity));
    check(report, link->queued() > link->in_flight(),
          "link " + name + ": queued " + u64(link->queued()) +
              " exceeds in-flight " + u64(link->in_flight()));
    check(report, !link->is_up() && link->in_flight() != 0,
          "link " + name + ": down but still has " +
              u64(link->in_flight()) + " frames in flight");
  }
}

void audit_switch(InvariantReport& report, const std::string& who,
                  const pisa::SwitchStats& sw) {
  const std::uint64_t accounted = sw.parse_errors + sw.dropped_by_program +
                                  sw.dropped_while_failed +
                                  sw.egress_scheduled;
  check(report, sw.rx_frames != accounted,
        who + ": rx_frames " + u64(sw.rx_frames) +
            " != parse_errors + dropped_by_program + "
            "dropped_while_failed + egress_scheduled = " +
            u64(accounted));
  // Every copy of a pass that sent to egress ends in exactly one of
  // tx_frames (handed to a link), recirculated, or flushed_in_pipeline
  // (lost to a failure inside the pipeline); <= because a loopback copy
  // still traversing the pipeline has been sent but not yet counted.
  check(report,
        sw.tx_frames + sw.recirculated + sw.flushed_in_pipeline >
            sw.egress_scheduled + sw.multicast_copies,
        who + ": tx_frames " + u64(sw.tx_frames) + " + recirculated " +
            u64(sw.recirculated) + " + flushed_in_pipeline " +
            u64(sw.flushed_in_pipeline) + " exceeds egress_scheduled " +
            u64(sw.egress_scheduled) + " + multicast_copies " +
            u64(sw.multicast_copies));
}

void audit_filter(InvariantReport& report, const std::string& who,
                  const core::NetCloneProgramStats& ps) {
  // A hit needs a fingerprint this switch stored itself, one a fault
  // planted, or one a resync snapshot handed a replica. Every replica
  // computes the verdict but only the chain's tail enacts it, so drops
  // are bounded by hits (a chain of one, every ToR, enacts each hit).
  check(report,
        ps.filter_hits > ps.fingerprints_stored + ps.injected_stale_entries +
                             ps.chain_sync_fingerprints_adopted,
        who + ": filter_hits " + u64(ps.filter_hits) +
            " exceeds fingerprints_stored " + u64(ps.fingerprints_stored) +
            " + injected_stale_entries " + u64(ps.injected_stale_entries) +
            " + chain_sync_fingerprints_adopted " +
            u64(ps.chain_sync_fingerprints_adopted));
  check(report, ps.filtered_responses > ps.filter_hits,
        who + ": filtered_responses " + u64(ps.filtered_responses) +
            " exceeds filter_hits " + u64(ps.filter_hits));
}

void audit_pools(InvariantReport& report,
                 const std::vector<wire::FramePool::Stats>& pools) {
  // One balance sheet per pool the experiment owns. Every buffer releases
  // into the pool that acquired it, so each sheet must balance on its
  // own.
  for (std::size_t i = 0; i < pools.size(); ++i) {
    const wire::FramePool::Stats& pool = pools[i];
    const std::string who =
        pools.size() == 1 ? std::string("frame pool")
                          : "frame pool " + std::to_string(i);
    check(report, pool.released > pool.acquired,
          who + ": released " + u64(pool.released) + " exceeds acquired " +
              u64(pool.acquired));
    check(report, pool.live != pool.acquired - pool.released,
          who + ": live " + u64(pool.live) + " != acquired " +
              u64(pool.acquired) + " - released " + u64(pool.released));
  }
}

/// The sections every testbed shares, over its registries: clients,
/// servers, links, every switch, every NetClone program's filter, and the
/// frame pool.
InvariantReport audit_testbed(const Testbed& bed) {
  InvariantReport report;
  audit_clients(report, bed.clients());
  audit_servers(report, bed.servers());
  audit_links(report, bed.links());
  for (const auto& [name, device] : bed.switches()) {
    audit_switch(report, "switch " + name, device->stats());
  }
  for (const auto& [name, program] : bed.netclone_programs()) {
    audit_filter(report, "program on " + name, program->stats());
  }
  audit_pools(report, bed.frame_pool_stats());
  return report;
}

// ---- shared digest folds -------------------------------------------------

void fold_clients(Fnv1aFold& fold,
                  const std::vector<host::Client*>& clients) {
  for (const host::Client* client : clients) {
    const host::ClientStats& cs = client->stats();
    fold(cs.requests_sent);
    fold(cs.packets_sent);
    fold(cs.completed);
    fold(cs.completed_in_window);
    fold(cs.redundant_responses);
    fold(cs.unmatched_responses);
    fold(cs.checksum_drops);
    fold(cs.retransmissions);
    fold(cs.cancels_sent);
  }
}

void fold_servers(Fnv1aFold& fold,
                  const std::vector<host::Server*>& servers) {
  for (const host::Server* server : servers) {
    const host::ServerStats& ss = server->stats();
    fold(ss.rx_requests);
    fold(ss.completed);
    fold(ss.dropped_stale_clones);
    fold(ss.duplicate_fragments);
    fold(ss.expired_partials);
    fold(ss.cancelled_requests);
    fold(ss.checksum_drops);
    fold(ss.crashes);
    fold(ss.dropped_while_crashed);
    fold(ss.paused_frames);
    fold(ss.abandoned_in_flight);
  }
}

void fold_switch(Fnv1aFold& fold, const pisa::SwitchStats& sw) {
  fold(sw.rx_frames);
  fold(sw.tx_frames);
  fold(sw.dropped_by_program);
  fold(sw.recirculated);
  fold(sw.multicast_copies);
  fold(sw.parse_errors);
  fold(sw.dropped_while_failed);
  fold(sw.egress_scheduled);
  fold(sw.flushed_in_pipeline);
  fold(sw.soft_state_wipes);
}

void fold_links(
    Fnv1aFold& fold,
    const std::vector<std::pair<std::string, phys::Link*>>& links) {
  for (const auto& [name, link] : links) {
    const phys::LinkStats& ls = link->stats();
    fold(ls.tx_frames);
    fold(ls.tx_bytes);
    fold(ls.dropped_frames);
    fold(ls.flushed_frames);
    fold(ls.impaired_drops);
    fold(ls.corrupted_frames);
    fold(ls.duplicated_frames);
    fold(ls.reordered_frames);
  }
}

void fold_netclone(Fnv1aFold& fold,
                   const core::NetCloneProgramStats& ps) {
  fold(ps.requests);
  fold(ps.cloned_requests);
  fold(ps.recirculated_clones);
  fold(ps.responses);
  fold(ps.fingerprints_stored);
  fold(ps.filtered_responses);
  fold(ps.missing_route_drops);
  fold(ps.injected_stale_entries);
}

void fold_agg_netclone(Fnv1aFold& fold,
                       const core::NetCloneProgramStats& ps) {
  fold(ps.requests);
  fold(ps.cloned_requests);
  fold(ps.recirculated_clones);
  fold(ps.write_requests);
  fold(ps.responses);
  fold(ps.fingerprints_stored);
  fold(ps.filter_hits);
  fold(ps.filtered_responses);
  fold(ps.chain_forwards);
  fold(ps.foreign_packets);
  fold(ps.missing_route_drops);
  fold(ps.chain_sync_markers);
  fold(ps.chain_sync_snapshots_filled);
  fold(ps.chain_sync_installs);
  fold(ps.chain_sync_stale);
  fold(ps.chain_sync_consumed);
  fold(ps.non_member_response_drops);
  fold(ps.chain_sync_fingerprints_adopted);
}

/// The folds every testbed shares, in digest order: the executed event
/// count, then clients, servers, every switch and every link.
Fnv1aFold fold_testbed(const Testbed& bed) {
  Fnv1aFold fold;
  fold(bed.executed_events());
  fold_clients(fold, bed.clients());
  fold_servers(fold, bed.servers());
  for (const auto& [name, device] : bed.switches()) {
    fold_switch(fold, device->stats());
  }
  fold_links(fold, bed.links());
  return fold;
}

/// True when every link has delivered everything it accepted and no
/// frame was lost, mangled, or reordered in transit — the precondition
/// for the exact replica-convergence checks (a lossy or still-moving
/// fabric legitimately leaves replicas mid-divergence).
bool fabric_quiesced_clean(
    const std::vector<std::pair<std::string, phys::Link*>>& links) {
  for (const auto& [name, link] : links) {
    if (link->in_flight() != 0) {
      return false;
    }
    const phys::LinkStats& ls = link->stats();
    if (ls.dropped_frames != 0 || ls.flushed_frames != 0 ||
        ls.impaired_drops != 0 || ls.corrupted_frames != 0 ||
        ls.duplicated_frames != 0 || ls.reordered_frames != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string InvariantReport::to_string() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i != 0) {
      out << '\n';
    }
    out << violations[i];
  }
  return out.str();
}

InvariantReport audit_invariants(const Experiment& exp) {
  return audit_testbed(exp);
}

InvariantReport audit_invariants(const MultiRackExperiment& exp) {
  InvariantReport report = audit_testbed(exp);
  const bool replicated = exp.config().agg_mode == AggMode::kReplicated;

  // Replica convergence: once the fabric is quiet and lossless, the
  // chain must have driven every ADMITTED member to the same soft-state
  // image (NetChain's state-machine-replication contract). Failure
  // debris (frames dropped at or flushed inside a dead replica) is
  // legitimate exactly where the fault plan killed one — ctrl->fails_of
  // says where; any other switch must be spotless, and a mid-run
  // register wipe always voids the comparison (the wiped image is
  // legitimately different).
  if (replicated && exp.num_aggs() > 1 &&
      fabric_quiesced_clean(exp.links())) {
    const ChainController* ctrl = exp.chain_controller();
    bool switches_clean = true;
    for (const auto& [name, device] : exp.switches()) {
      const pisa::SwitchStats& sw = device->stats();
      if (sw.soft_state_wipes != 0) {
        switches_clean = false;
        break;
      }
      if (sw.dropped_while_failed == 0 && sw.flushed_in_pipeline == 0) {
        continue;
      }
      const std::optional<std::size_t> agg = target_index(name, "agg");
      const bool failed_agg =
          ctrl != nullptr && agg.has_value() && ctrl->fails_of(*agg) > 0;
      if (!failed_agg) {
        switches_clean = false;
        break;
      }
    }
    if (switches_clean && (ctrl == nullptr || ctrl->quiescent())) {
      std::vector<std::size_t> members;
      if (ctrl != nullptr) {
        members = ctrl->admitted_members();
      } else {
        for (std::size_t a = 0; a < exp.num_aggs(); ++a) {
          members.push_back(a);
        }
      }
      // Chain reshaping makes per-replica response COUNTS legitimately
      // unequal (a late joiner missed the early stream; survivors saw
      // frames that died with a corpse) — the exact-count check only
      // holds on a structurally untouched chain. The digest check is
      // unconditional: resync + delta replay must still converge the
      // soft-state IMAGE.
      const bool untouched =
          ctrl == nullptr || ctrl->structural_changes() == 0;
      if (!members.empty()) {
        const std::size_t lead = members.front();
        const core::NetCloneProgramStats& head =
            exp.agg_netclone_program(lead).stats();
        const std::uint64_t head_digest =
            exp.agg_netclone_program(lead).soft_state_digest();
        const std::uint64_t head_occupancy =
            exp.agg_netclone_program(lead).filter_occupancy();
        for (std::size_t i = 1; i < members.size(); ++i) {
          const std::size_t a = members[i];
          const core::NetCloneProgramStats& ps =
              exp.agg_netclone_program(a).stats();
          if (untouched) {
            check(report, ps.responses != head.responses,
                  "replica agg" + std::to_string(a) + ": applied " +
                      u64(ps.responses) +
                      " responses but the head applied " +
                      u64(head.responses) +
                      " (a response skipped part of the chain)");
          }
          check(report,
                exp.agg_netclone_program(a).soft_state_digest() !=
                    head_digest,
                "replica agg" + std::to_string(a) +
                    ": soft-state digest diverges from the head after a "
                    "clean quiesce (chain replication broke)");
          check(report,
                exp.agg_netclone_program(a).filter_occupancy() !=
                    head_occupancy,
                "replica agg" + std::to_string(a) +
                    ": filter occupancy " +
                    u64(exp.agg_netclone_program(a).filter_occupancy()) +
                    " != head occupancy " + u64(head_occupancy) +
                    " after a clean quiesce");
        }
        // Bounded filter tables on every member (notably a rejoined
        // node): live fingerprints cannot exceed what the whole tier
        // ever stored — a resync must copy state, not invent it.
        std::uint64_t tier_stored = 0;
        for (std::size_t a = 0; a < exp.num_aggs(); ++a) {
          tier_stored += exp.agg_netclone_program(a).stats()
                             .fingerprints_stored;
        }
        for (const std::size_t a : members) {
          const std::uint64_t occupancy =
              exp.agg_netclone_program(a).filter_occupancy();
          check(report, occupancy > tier_stored,
                "replica agg" + std::to_string(a) +
                    ": filter occupancy " + u64(occupancy) +
                    " exceeds the " + u64(tier_stored) +
                    " fingerprints ever stored tier-wide (a resync "
                    "invented filter state)");
        }
      }
    }
  }
  return report;
}

std::uint64_t chaos_digest(const Experiment& exp) {
  Fnv1aFold fold = fold_testbed(exp);
  if (exp.netclone_program() != nullptr) {
    fold_netclone(fold, exp.netclone_program()->stats());
  }
  return fold.digest;
}

std::uint64_t chaos_digest(const MultiRackExperiment& exp) {
  Fnv1aFold fold = fold_testbed(exp);
  if (exp.config().agg_mode == AggMode::kReplicated) {
    for (std::size_t a = 0; a < exp.num_aggs(); ++a) {
      fold_agg_netclone(fold, exp.agg_netclone_program(a).stats());
    }
  } else {
    fold_netclone(fold, exp.client_tor_program().stats());
    for (std::size_t a = 0; a < exp.num_aggs(); ++a) {
      const baselines::RouterStats& rs = exp.agg_program(a).stats();
      fold(rs.routed);
      fold(rs.no_route_drops);
    }
  }
  for (std::size_t rack = 0; rack < exp.config().server_racks; ++rack) {
    fold_netclone(fold, exp.server_tor_program(rack).stats());
  }
  return fold.digest;
}

}  // namespace netclone::harness

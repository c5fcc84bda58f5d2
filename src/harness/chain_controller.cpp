#include "harness/chain_controller.hpp"

#include <numeric>

#include "common/check.hpp"
#include "host/addressing.hpp"
#include "wire/frame.hpp"

namespace netclone::harness {

ChainController::ChainController(
    std::vector<ChainReplica> replicas,
    std::vector<std::vector<std::optional<std::size_t>>> chain_ports,
    std::shared_ptr<core::AggChainSyncHub> hub,
    std::function<void(const std::vector<std::size_t>&)> update_spray,
    std::function<void(std::size_t)> repoint_responses)
    : replicas_(std::move(replicas)),
      chain_ports_(std::move(chain_ports)),
      hub_(std::move(hub)),
      update_spray_(std::move(update_spray)),
      repoint_responses_(std::move(repoint_responses)),
      fails_(replicas_.size(), 0) {
  NETCLONE_CHECK(!replicas_.empty(), "chain controller needs replicas");
  NETCLONE_CHECK(chain_ports_.size() == replicas_.size(),
                 "chain port matrix must cover every replica");
  chain_.resize(replicas_.size());
  std::iota(chain_.begin(), chain_.end(), std::size_t{0});
}

std::size_t ChainController::position_of(std::size_t replica) const {
  for (std::size_t pos = 0; pos < chain_.size(); ++pos) {
    if (chain_[pos] == replica) {
      return pos;
    }
  }
  return kNone;
}

void ChainController::settle_and_check_no_overlap(const char* op) {
  for (auto it = pending_admits_.begin(); it != pending_admits_.end();) {
    if (replicas_[it->first].program->chain_member()) {
      it = pending_admits_.erase(it);  // admit marker landed
    } else {
      ++it;
    }
  }
  NETCLONE_CHECK(pending_admits_.empty() && pending_reconciles_.empty(),
                 std::string(op) +
                     " overlaps an in-flight chain resync — space plan "
                     "events at least kChainSyncDelay apart");
}

void ChainController::fail_replica(std::size_t replica) {
  NETCLONE_CHECK(replica < replicas_.size(), "replica index out of range");
  settle_and_check_no_overlap("agg_fail");
  const std::size_t pos = position_of(replica);
  NETCLONE_CHECK(pos != kNone,
                 "agg_fail target is not an admitted chain member");
  NETCLONE_CHECK(chain_.size() >= 2, "cannot fail the only chain replica");

  ++fails_[replica];
  ++structural_changes_;
  replicas_[replica].device->fail();
  replicas_[replica].program->set_chain_member(false);

  const bool was_head = pos == 0;
  const bool was_tail = pos + 1 == chain_.size();
  if (!was_head) {
    const std::size_t pred = chain_[pos - 1];
    if (was_tail) {
      // Verdict authority moves to the predecessor. Survivors all saw a
      // prefix of the same response stream — no reconcile needed.
      replicas_[pred].program->set_chain_next(std::nullopt);
    } else {
      const std::size_t succ = chain_[pos + 1];
      replicas_[pred].program->set_chain_next(chain_ports_[pred][succ]);
      // The successor may have missed updates that died inside the
      // corpse; the delayed reconcile marker overwrites it (and everyone
      // downstream) with the predecessor's state.
      pending_reconciles_[replica] = pred;
    }
  }
  chain_.erase(chain_.begin() + static_cast<std::ptrdiff_t>(pos));
  if (was_head) {
    // Responses must now enter the chain at the new head.
    repoint_responses_(chain_.front());
  }
  update_spray_(admitted_members());
}

void ChainController::reconcile_after_fail(std::size_t replica) {
  const auto it = pending_reconciles_.find(replica);
  if (it == pending_reconciles_.end()) {
    return;  // superseded by a later structural change
  }
  const std::size_t filler = it->second;
  pending_reconciles_.erase(it);
  if (position_of(filler) == kNone ||
      !replicas_[filler].program->chain_member()) {
    // The would-be filler died too; its own fail recorded a fresher
    // reconcile that covers the chain.
    return;
  }
  const std::uint32_t sync_id = next_sync_id_++;
  hub_->create(sync_id);
  inject_marker(filler, sync_id);
}

void ChainController::rejoin_replica(std::size_t replica) {
  NETCLONE_CHECK(replica < replicas_.size(), "replica index out of range");
  settle_and_check_no_overlap("agg_rejoin");
  NETCLONE_CHECK(position_of(replica) == kNone,
                 "agg_rejoin target is already a chain member");
  NETCLONE_CHECK(fails_[replica] > 0, "agg_rejoin without a prior agg_fail");
  NETCLONE_CHECK(!chain_.empty(), "chain has no live members to rejoin");

  ++structural_changes_;
  replicas_[replica].device->recover();
  const std::size_t old_tail = chain_.back();
  const std::uint32_t sync_id = next_sync_id_++;
  core::AggChainSyncRecord& record = hub_->create(sync_id);
  record.filler_next_port = chain_ports_[old_tail][replica];
  record.admit_target = replica;
  chain_.push_back(replica);
  pending_admits_[replica] = sync_id;
}

void ChainController::inject_admit_marker(std::size_t replica) {
  const auto it = pending_admits_.find(replica);
  NETCLONE_CHECK(it != pending_admits_.end(),
                 "admit marker injection without a pending admit");
  const std::size_t pos = position_of(replica);
  NETCLONE_CHECK(pos != kNone && pos > 0, "pending admit lost its chain slot");
  inject_marker(chain_[pos - 1], it->second);
}

void ChainController::readmit_spray(std::size_t replica) {
  if (position_of(replica) == kNone ||
      !replicas_[replica].program->chain_member()) {
    return;  // superseded: the replica failed again before readmission
  }
  update_spray_(admitted_members());
}

std::vector<std::size_t> ChainController::admitted_members() const {
  std::vector<std::size_t> members;
  for (const std::size_t replica : chain_) {
    if (replicas_[replica].program->chain_member()) {
      members.push_back(replica);
    }
  }
  return members;
}

bool ChainController::quiescent() const {
  if (!pending_reconciles_.empty()) {
    return false;
  }
  for (const auto& [replica, sync_id] : pending_admits_) {
    if (!replicas_[replica].program->chain_member()) {
      return false;
    }
  }
  return true;
}

void ChainController::inject_marker(std::size_t filler,
                                    std::uint32_t sync_id) {
  // The marker is an ordinary tier-stamped frame delivered at the
  // filler's ingress; it rides the same FIFO pipeline and chain links as
  // the response stream, which is exactly what makes its position a
  // consistent cut.
  wire::NetCloneHeader nc;
  nc.type = wire::MsgType::kChainSync;
  nc.req_id = sync_id;
  nc.switch_id = replicas_[filler].program->config().switch_id;
  wire::Packet pkt = wire::make_netclone_packet(
      wire::MacAddress::broadcast(), wire::MacAddress::broadcast(),
      host::service_vip(), host::service_vip(), /*src_port=*/0, nc,
      wire::Frame{});
  replicas_[filler].device->handle_frame(/*port=*/0, pkt.serialize_pooled());
}

}  // namespace netclone::harness

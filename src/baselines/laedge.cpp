#include "baselines/laedge.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace netclone::baselines {

namespace {

/// Serial CPU time per packet handled (rx or tx).
constexpr SimTime kPerPacketCost = SimTime::nanoseconds(1200);
/// NIC rx ring size, in packet-times of reserved CPU backlog.
constexpr std::size_t kRxRingCapacity = 512;

}  // namespace

LaedgeCoordinator::LaedgeCoordinator(sim::Simulator& sim,
                                     std::vector<LaedgeWorkerInfo> workers,
                                     Rng rng)
    : phys::Node("laedge-coordinator"),
      sim_(sim),
      workers_(std::move(workers)),
      rng_(rng),
      my_ip_(host::coordinator_ip()),
      my_mac_(wire::MacAddress::from_node(0x0300U)) {
  NETCLONE_CHECK(!workers_.empty(), "coordinator needs workers");
  outstanding_.assign(workers_.size(), 0);
}

SimTime LaedgeCoordinator::charge_cpu() {
  const SimTime start = std::max(sim_.now(), cpu_busy_until_);
  cpu_busy_until_ = start + kPerPacketCost;
  return cpu_busy_until_;
}

void LaedgeCoordinator::handle_frame(std::size_t /*port*/,
                                     wire::FrameHandle frame) {
  wire::PacketView pkt;
  try {
    pkt = wire::PacketView{std::move(frame)};
  } catch (const wire::CodecError&) {
    return;
  }
  if (!pkt.has_netclone()) {
    return;
  }
  // Bounded rx admission: under overload, excess *requests* are shed before
  // costing any cycles (NIC ring overflow). Responses are always admitted —
  // they are bounded by the outstanding-dispatch count and freeing worker
  // slots must not livelock behind the request flood.
  if (wire::is_request(pkt.type())) {
    const auto backlog_ns =
        static_cast<double>((cpu_busy_until_ - sim_.now()).ns());
    if (backlog_ns > static_cast<double>(kPerPacketCost.ns()) *
                         static_cast<double>(kRxRingCapacity)) {
      ++stats_.rx_ring_drops;
      return;
    }
  }
  // Receive path: the packet waits for the coordinator CPU. Its events
  // fire in charge order, so each one takes the rx queue's front.
  rx_queue_.push_back(std::move(pkt));
  sim_.schedule_at(charge_cpu(), [this] { on_cpu(); });
}

void LaedgeCoordinator::on_cpu() {
  wire::PacketView pkt = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  if (wire::is_request(pkt.type())) {
    admit_request(std::move(pkt));
  } else {
    on_response(std::move(pkt));
  }
}

std::vector<std::size_t> LaedgeCoordinator::idle_workers() const {
  std::vector<std::size_t> idle;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (outstanding_[w] < workers_[w].capacity) {
      idle.push_back(w);
    }
  }
  return idle;
}

void LaedgeCoordinator::admit_request(wire::PacketView&& pkt) {
  ++stats_.requests;
  const std::uint64_t key = request_key(pkt.client_id(), pkt.client_seq());
  requests_.insert_or_assign(
      key, RequestState{pkt.ip_src(), pkt.src_port(), /*copies=*/0, false});

  const std::vector<std::size_t> idle = idle_workers();
  if (idle.empty()) {
    // All workers busy: buffer until a response frees capacity.
    ++stats_.queued;
    pending_.push_back(std::move(pkt));
    stats_.max_queue_depth =
        std::max(stats_.max_queue_depth, pending_.size());
    return;
  }
  forward_or_clone(pkt, idle);
}

void LaedgeCoordinator::forward_or_clone(
    const wire::PacketView& pkt, const std::vector<std::size_t>& idle) {
  if (idle.size() == 1) {
    ++stats_.forwarded_single;
    dispatch(pkt, idle[0]);
    return;
  }
  // Clone to two random idle workers (LÆDGE: replicate iff >= 2 idle).
  ++stats_.cloned;
  const auto a = static_cast<std::size_t>(rng_.next_below(idle.size()));
  auto b = static_cast<std::size_t>(rng_.next_below(idle.size() - 1));
  if (b >= a) {
    ++b;
  }
  dispatch(pkt, idle[a]);
  dispatch(pkt, idle[b]);
}

void LaedgeCoordinator::dispatch(const wire::PacketView& pkt,
                                 std::size_t w) {
  const LaedgeWorkerInfo& worker = workers_[w];
  ++outstanding_[w];

  const std::uint64_t key = request_key(pkt.client_id(), pkt.client_seq());
  if (RequestState* state = requests_.find(key)) {
    ++state->copies_outstanding;  // always present: admit_request inserts
  }

  // The received request still holds its frame, so the first rewrite
  // moves this copy to a private copy of that frame.
  wire::PacketView out = pkt;
  out.set_eth_src(my_mac_);
  out.set_ip_src(my_ip_);  // responses must come back through us
  out.set_ip_dst(worker.ip);
  out.set_src_port(wire::kNetClonePort);
  // Transmit path: each copy occupies the CPU again before hitting the NIC.
  send_at(0, charge_cpu(), out.take_frame());
}

void LaedgeCoordinator::on_response(wire::PacketView&& pkt) {
  const std::uint8_t sid = pkt.sid();
  // Locate the worker that answered and release its slot.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (value_of(workers_[w].sid) == sid) {
      if (outstanding_[w] > 0) {
        --outstanding_[w];
      }
      break;
    }
  }

  const std::uint64_t key = request_key(pkt.client_id(), pkt.client_seq());
  if (RequestState* found = requests_.find(key)) {
    RequestState& state = *found;
    if (state.copies_outstanding > 0) {
      --state.copies_outstanding;
    }
    if (!state.relayed) {
      state.relayed = true;
      ++stats_.relayed_responses;
      pkt.set_eth_src(my_mac_);
      pkt.set_ip_src(my_ip_);
      pkt.set_ip_dst(state.client_ip);
      pkt.set_dst_port(state.client_port);
      pkt.set_src_port(wire::kNetClonePort);
      send_at(0, charge_cpu(), pkt.take_frame());
    } else {
      ++stats_.absorbed_duplicates;  // slower clone: CPU paid, then dropped
    }
    if (state.copies_outstanding == 0) {
      requests_.erase(key);
    }
  }

  drain_queue();
}

void LaedgeCoordinator::drain_queue() {
  while (!pending_.empty()) {
    const std::vector<std::size_t> idle = idle_workers();
    if (idle.empty()) {
      return;
    }
    wire::PacketView pkt = std::move(pending_.front());
    pending_.pop_front();
    forward_or_clone(pkt, idle);
  }
}

}  // namespace netclone::baselines

// LÆDGE-style coordinator-based dynamic cloning (Primorac et al., NSDI'21;
// the paper's state-of-the-art comparison point).
//
// A single CPU-bound coordinator node sits between clients and workers:
//   * a request is cloned to two idle workers when at least two are idle,
//     forwarded to the single idle worker when exactly one is, and queued
//     in the coordinator otherwise ("load-aware dynamic cloning");
//   * queued requests are dispatched as responses free worker capacity;
//   * the coordinator relays the first response of each request to the
//     client and absorbs the redundant one — paying CPU for it, which is
//     one of the two reasons the paper finds the approach unscalable.
// Every packet the coordinator receives or transmits occupies its serial
// CPU for `per_packet_cost`, giving it the few-Mpps ceiling of a commodity
// server and reproducing the Fig. 8 throughput collapse.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "host/addressing.hpp"
#include "phys/node.hpp"
#include "sim/simulator.hpp"
#include "wire/packet_view.hpp"

namespace netclone::baselines {

struct LaedgeWorkerInfo {
  ServerId sid{};
  wire::Ipv4Address ip{};
  /// Concurrent requests the worker can execute (its worker threads); the
  /// coordinator treats a worker with spare capacity as idle.
  std::uint32_t capacity = 16;
};

struct LaedgeParams {
  /// Serial CPU time per packet handled (rx or tx). An optimized
  /// kernel-bypass coordinator processes a few million packets per second,
  /// i.e. order-microsecond per packet once decision logic is included.
  SimTime per_packet_cost = SimTime::nanoseconds(1200);
  /// NIC rx ring size: frames arriving while this many packets of CPU
  /// backlog are already reserved get dropped, as on real hardware under
  /// overload (otherwise rx work would starve transmissions forever).
  std::size_t rx_ring_capacity = 512;
  std::vector<LaedgeWorkerInfo> workers{};
};

struct LaedgeStats {
  std::uint64_t requests = 0;
  std::uint64_t cloned = 0;
  std::uint64_t forwarded_single = 0;
  std::uint64_t queued = 0;
  std::uint64_t relayed_responses = 0;
  std::uint64_t absorbed_duplicates = 0;
  std::uint64_t rx_ring_drops = 0;
  std::size_t max_queue_depth = 0;
};

class LaedgeCoordinator : public phys::Node {
 public:
  LaedgeCoordinator(sim::Simulator& sim, LaedgeParams params, Rng rng);

  void handle_frame(std::size_t port, wire::FrameHandle frame) override;

  [[nodiscard]] const LaedgeStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pending_requests() const {
    return pending_.size();
  }

 private:
  struct RequestState {
    wire::Ipv4Address client_ip{};
    std::uint16_t client_port = 0;
    std::uint32_t copies_outstanding = 0;
    bool relayed = false;
  };

  [[nodiscard]] static std::uint64_t request_key(std::uint16_t client_id,
                                                 std::uint32_t client_seq) {
    return static_cast<std::uint64_t>(client_id) << 32 | client_seq;
  }

  /// The CPU reaches the rx queue's front packet.
  void on_cpu();
  void admit_request(wire::PacketView&& pkt);
  void on_response(wire::PacketView&& pkt);
  /// Dispatches one copy of `pkt` to worker `w`, charging CPU for the tx.
  void dispatch(const wire::PacketView& pkt, std::size_t w);
  void drain_queue();
  [[nodiscard]] std::vector<std::size_t> idle_workers() const;
  /// Occupies the serial CPU for one packet-time and returns the instant
  /// the work completes.
  SimTime charge_cpu();

  sim::Simulator& sim_;
  LaedgeParams params_;
  Rng rng_;
  wire::Ipv4Address my_ip_;
  wire::MacAddress my_mac_;

  SimTime cpu_busy_until_ = SimTime::zero();
  /// Received packets waiting for the CPU, in arrival order.
  std::deque<wire::PacketView> rx_queue_;
  std::vector<std::uint32_t> outstanding_;  // per worker
  std::deque<wire::PacketView> pending_;
  /// Outstanding requests keyed by (client_id, client_seq) — on the
  /// coordinator's per-packet critical path, hence the flat table.
  FlatMap64<RequestState> requests_;
  LaedgeStats stats_;
};

}  // namespace netclone::baselines

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
// CPU for 1.2 µs: an optimized kernel-bypass coordinator processes a few
// million packets per second once decision logic is included. That is the
// few-Mpps ceiling of a commodity server, and it reproduces the Fig. 8
// throughput collapse. Under overload its NIC rx ring sheds requests that
// arrive while 512 packet-times of CPU work are already reserved, as on
// real hardware (otherwise rx work would starve transmissions forever).
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "common/ring.hpp"
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
  LaedgeCoordinator(sim::Simulator& sim,
                    std::vector<LaedgeWorkerInfo> workers, Rng rng);

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
  /// LÆDGE's decision for a request and a non-empty `idle` list: forward
  /// to the one idle worker, or clone to two distinct random ones.
  void forward_or_clone(const wire::PacketView& pkt,
                        const std::vector<std::size_t>& idle);
  void drain_queue();
  /// The workers with spare capacity, in index order, listed into idle_
  /// (valid until the next call).
  [[nodiscard]] const std::vector<std::size_t>& idle_workers();
  /// Occupies the serial CPU for one packet-time and returns the instant
  /// the work completes.
  SimTime charge_cpu();

  sim::Simulator& sim_;
  std::vector<LaedgeWorkerInfo> workers_;
  Rng rng_;
  wire::Ipv4Address my_ip_;
  wire::MacAddress my_mac_;

  SimTime cpu_busy_until_ = SimTime::zero();
  /// Received packets waiting for the CPU, in arrival order.
  Ring<wire::PacketView> rx_queue_;
  std::vector<std::uint32_t> outstanding_;  // per worker
  /// Scratch for idle_workers(), reserved to the worker count so a
  /// decision allocates nothing.
  std::vector<std::size_t> idle_;
  Ring<wire::PacketView> pending_;
  /// Outstanding requests keyed by (client_id, client_seq) — on the
  /// coordinator's per-packet critical path, hence the flat table.
  FlatMap64<RequestState> requests_;
  LaedgeStats stats_;
};

}  // namespace netclone::baselines

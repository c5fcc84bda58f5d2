// Unidirectional point-to-point link.
//
// Models the three delay components of a real cable + NIC path:
//   * serialization: wire_bits / rate, back-to-back frames queue behind the
//     transmitter ("busy until" tracking);
//   * propagation + fixed PHY/NIC latency: `delay`;
//   * a bounded egress queue: frames arriving while `capacity` frames are
//     already waiting are dropped (drop-tail), as on a real ToR port.
//
// Delivery is batched: in-flight frames wait in a per-link FIFO and a
// single scheduler event is armed for the earliest delivery, so a busy
// link holds one pending event no matter how deep its queue — transmit
// is a deque push plus a tie-break sequence reservation. Each firing
// delivers the head frame and rearms for the next under the sequence
// number reserved at its transmit, so same-timestamp ordering across
// links is bit-for-bit what eager per-frame scheduling would produce.
// Taking the link down simply clears the FIFO, which is also what makes
// a down/up cycle safe: no stale per-frame events survive to corrupt the
// revived link's drop-tail occupancy.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "common/rng.hpp"
#include "sim/scheduler.hpp"
#include "wire/framebuf.hpp"

namespace netclone::phys {

class Node;

struct LinkParams {
  /// Line rate in bits per second (default 100GbE).
  double rate_bps = 100e9;
  /// Propagation + fixed per-hop latency.
  SimTime delay = SimTime::nanoseconds(850);
  /// Egress queue capacity in packets (excluding the one in flight).
  std::size_t queue_capacity = 1024;
};

/// Probabilistic per-frame impairments. All rates are probabilities in
/// [0, 1]; an all-zero config means the link is clean and transmit pays
/// only a single pointer test.
struct LinkImpairments {
  double drop_rate = 0.0;
  double corrupt_rate = 0.0;
  double reorder_rate = 0.0;
  double duplicate_rate = 0.0;

  [[nodiscard]] bool any() const {
    return drop_rate > 0.0 || corrupt_rate > 0.0 || reorder_rate > 0.0 ||
           duplicate_rate > 0.0;
  }
};

struct LinkStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dropped_frames = 0;
  /// Frames lost because the link went down while they were in flight.
  std::uint64_t flushed_frames = 0;
  /// Frames lost to the impairment model (counted apart from drop-tail).
  std::uint64_t impaired_drops = 0;
  std::uint64_t corrupted_frames = 0;
  std::uint64_t duplicated_frames = 0;
  std::uint64_t reordered_frames = 0;
};

class Link {
 public:
  Link(sim::Scheduler& scheduler, LinkParams params);
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Wires the receive side. `dst_port` is the port index on `dst` at which
  /// frames arrive.
  void connect_to(Node* dst, std::size_t dst_port);

  /// Enqueues a frame for transmission; may drop if the queue is full.
  /// The handle is moved into the in-flight FIFO — no byte copies; a
  /// multicast emit passes one shared handle per link.
  void transmit(wire::FrameHandle frame);

  /// Administratively disables the link; queued and in-flight frames are
  /// lost (models pulling the cable / peer down).
  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  /// Installs (or, with an all-zero config, removes) the impairment
  /// model. The first call seeds the link's dedicated RNG stream from
  /// `seed`; later calls reconfigure rates without restarting the
  /// stream, so a fault plan that ramps rates mid-run stays on one
  /// deterministic sequence.
  void configure_impairments(const LinkImpairments& cfg,
                             std::uint64_t seed);
  /// Active impairment config, or nullptr when the link is clean.
  [[nodiscard]] const LinkImpairments* impairments() const {
    return impair_ != nullptr ? &impair_->cfg : nullptr;
  }

  /// In-flight + queued frames awaiting delivery (at most one scheduler
  /// event is pending for all of them).
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  /// Frames currently holding a drop-tail occupancy slot.
  [[nodiscard]] std::size_t queued() const { return queued_; }

  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  [[nodiscard]] const LinkParams& params() const { return params_; }

 private:
  struct InFlight {
    SimTime deliver_at;
    /// Tie-break sequence reserved at transmit time; arming the delivery
    /// event under it keeps batching invisible to the determinism
    /// contract.
    std::uint64_t seq;
    bool counted_queued;  // holds a drop-tail occupancy slot until delivery
    wire::FrameHandle frame;
  };

  /// Per-link impairment state, allocated only when a non-zero config is
  /// installed — a clean link carries a null pointer and the transmit
  /// fast path is unchanged.
  struct ImpairmentState {
    LinkImpairments cfg;
    Rng rng;
  };

  [[nodiscard]] SimTime serialization_time(std::size_t bytes) const;
  /// The clean enqueue path: drop-tail check, FIFO push, head arming.
  void enqueue(wire::FrameHandle frame);
  /// Impairment gate in front of enqueue(): drop, corrupt (on a private
  /// copy), duplicate (second enqueue of a shared handle), reorder (swap
  /// the frame bytes of the last two FIFO entries).
  void transmit_impaired(wire::FrameHandle frame);
  /// Arms the delivery event for the FIFO head (which must exist).
  void arm_head();
  void deliver_head();

  sim::Scheduler& sim_;
  LinkParams params_;
  Node* dst_ = nullptr;
  std::size_t dst_port_ = 0;
  SimTime busy_until_ = SimTime::zero();
  std::size_t queued_ = 0;
  bool up_ = true;
  std::deque<InFlight> pending_;
  sim::EventId delivery_event_{};
  LinkStats stats_;
  std::unique_ptr<ImpairmentState> impair_;
};

}  // namespace netclone::phys

// Unidirectional point-to-point link.
//
// Models the three delay components of a real cable + NIC path:
//   * serialization: wire_bits / rate, back-to-back frames queue behind the
//     transmitter ("busy until" tracking);
//   * propagation + fixed PHY/NIC latency: `delay`;
//   * a bounded egress queue: frames arriving while `capacity` frames are
//     already waiting are dropped (drop-tail), as on a real ToR port.
//
// A sender hands a frame over together with the instant it is ready to
// leave (transmit_at): a switch at the end of its pipeline pass, a host
// when its sender thread has paid the per-packet cost. The FIFO starts the
// frame at max(busy_until, ready) and decides drop-tail admission and
// reordering against the queue as it will stand at `ready`, so the
// sender needs no event of its own to wait out the delay.
//
// The receive side mirrors it. A receiver whose thread spends a fixed
// time on every frame (Node::receive_cost: a server's dispatcher, a
// client's receiver thread) is a serial stage right behind the wire, and
// it has this one link as its only ingress. So the link computes the
// pickup instant at hand-off too, pickup = max(wire arrival, previous
// pickup) + cost, and delivers the frame then. For a receiver without a
// cost (a switch) the pickup is the wire arrival. Wire arrival frees the
// frame's drop-tail slot either way. One engine event per hop.
//
// Handed-over frames — not ready yet, queued, in flight, or awaiting
// pickup — wait in one per-link FIFO, and each one's delivery event is
// scheduled at hand-off. Pickup times and scheduling sequence numbers
// both grow along the FIFO, so the events fire in FIFO order and each one
// delivers the front frame. Taking the link down cancels the events of
// every frame in the FIFO and clears it, which is also what makes a
// down/up cycle safe: no stale event survives to corrupt the revived
// link's drop-tail occupancy. A failing sender can take back the frames
// it handed over that are not ready yet (retract_not_ready); their events
// are cancelled too, and so are those of a link destroyed with frames in
// flight.
#pragma once

#include <cstdint>
#include <memory>

#include "common/ring.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
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
  Link(sim::Simulator& sim, LinkParams params);
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Wires the receive side. `dst_port` is the port index on `dst` at which
  /// frames arrive. Reads the receiver's per-frame cost once (see
  /// Node::attach_ingress).
  void connect_to(Node* dst, std::size_t dst_port);

  /// Enqueues a frame that is ready now; may drop if the queue is full.
  /// Same as transmit_at(now, frame).
  void transmit(wire::FrameHandle frame);

  /// Hands over a frame that is ready to leave at `ready` (not in the
  /// past, and not before the previous hand-off's ready time). The frame
  /// starts at max(busy_until, ready); drop-tail admission counts the
  /// occupancy at `ready`, where slots whose frames are delivered by
  /// `ready` are free. The handle is moved into the FIFO — no byte
  /// copies; a multicast emit passes one shared handle per link.
  void transmit_at(SimTime ready, wire::FrameHandle frame);

  /// Takes back every frame whose ready time is not before now — frames
  /// still inside a failing sender — as if they had never been handed
  /// over: busy_until, the receiver's pickup clock, drop-tail occupancy,
  /// tx_frames and tx_bytes roll back, and a reorder swap that moved one
  /// of them is undone. Copies the link refused at hand-off stay counted
  /// where they were lost, and impairment draws are not returned to the
  /// stream. Returns the number of the sender's hand-offs removed (a
  /// duplicate the impairment model added is not one).
  std::size_t retract_not_ready();

  /// Administratively disables the link; queued and in-flight frames, and
  /// frames that arrived but await the receiver's pickup, are lost
  /// (models pulling the cable / peer down).
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

  /// Handed-over frames awaiting delivery: not ready yet, queued, in
  /// flight, or awaiting pickup (one pending delivery event each).
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  /// Frames currently holding a drop-tail occupancy slot. A frame that is
  /// not ready yet, or has reached the far end of the wire, holds none.
  [[nodiscard]] std::size_t queued() const;

  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  [[nodiscard]] const LinkParams& params() const { return params_; }

 private:
  /// Kept at 40 bytes on 64-bit targets (the flags share the ready
  /// time's word), so the occupancy walks touch few cache lines.
  struct InFlight {
    /// Wire arrival: the frame's drop-tail slot is free from here on.
    SimTime deliver_at;
    /// The receiver picks the frame up and its delivery event fires.
    SimTime pickup_at;
    /// Ready time in nanoseconds (61 bits hold 73 years; see ready()).
    std::uint64_t ready_ns : 61;
    /// Holds a drop-tail occupancy slot until wire arrival.
    std::uint64_t counted_queued : 1;
    /// A second copy added by the impairment model.
    std::uint64_t duplicate : 1;
    /// The reorder impairment swapped this slot's frame with the previous
    /// slot's (toggled, so a swap repeated on the same pair cancels).
    std::uint64_t swapped : 1;
    /// This slot's delivery event, scheduled at hand-off.
    sim::EventId delivery;
    wire::FrameHandle frame;

    [[nodiscard]] SimTime ready() const {
      return SimTime::nanoseconds(static_cast<std::int64_t>(ready_ns));
    }
  };
  static_assert(sizeof(InFlight) <= 40, "link FIFO entry grew");

  /// Per-link impairment state, allocated only when a non-zero config is
  /// installed — a clean link carries a null pointer and the transmit
  /// fast path is unchanged.
  struct ImpairmentState {
    LinkImpairments cfg;
    Rng rng;
  };

  [[nodiscard]] SimTime serialization_time(std::size_t bytes) const;
  /// Drop-tail occupancy at `ready`: queued_ minus the occupancy slots of
  /// frames that reached the far end of the wire by then.
  [[nodiscard]] std::size_t occupancy_at(SimTime ready) const;
  /// The clean enqueue path: drop-tail check, FIFO push, delivery event.
  void enqueue(SimTime ready, wire::FrameHandle frame, bool duplicate);
  /// Impairment gate in front of enqueue(): drop, corrupt (on a private
  /// copy), duplicate (second enqueue of a shared handle), reorder (swap
  /// the frame bytes of the last two FIFO entries while the earlier one
  /// is still in flight at `ready`).
  void transmit_impaired(SimTime ready, wire::FrameHandle frame);
  /// Fired by each frame's delivery event at its pickup: hands the FIFO's
  /// front frame to the receiver.
  void deliver_front();
  /// Cancels the delivery event of every FIFO entry.
  void cancel_deliveries();

  sim::Simulator& sim_;
  LinkParams params_;
  Node* dst_ = nullptr;
  std::size_t dst_port_ = 0;
  /// The receiver's per-frame cost, read at connect_to.
  SimTime receive_cost_ = SimTime::zero();
  SimTime busy_until_ = SimTime::zero();
  /// Pickup instant of the latest hand-off: the receiver's thread is busy
  /// until then.
  SimTime picked_up_until_ = SimTime::zero();
  /// Ready time of the latest hand-off; hand-offs come in ready order.
  SimTime last_ready_ = SimTime::zero();
  /// Occupancy slots held by FIFO entries until their pickup, frames not
  /// ready yet and frames past wire arrival included (queued() leaves
  /// those out).
  std::size_t queued_ = 0;
  bool up_ = true;
  Ring<InFlight> pending_;
  LinkStats stats_;
  std::unique_ptr<ImpairmentState> impair_;
};

}  // namespace netclone::phys

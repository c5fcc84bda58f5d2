// Event streams: components that keep their own pending events.
//
// Most of a run's events come from components whose events already wait
// in a FIFO of their own, in the order they will fire: a link's frames in
// flight, a client's next arrival, a switch's loopback copies. Such a
// component is a Stream. It keeps its events in that FIFO and shows the
// engine only the FIFO's head, so the engine orders a few dozen heads
// instead of every event (simulator.hpp).
//
// The seq contract, which keeps the global order bit-identical to one
// queue holding every event:
//   * each entry draws its tie-break number from Simulator::draw_seq() at
//     the call that schedules it, the same counter arena events draw
//     from;
//   * (when, seq) never decreases along the FIFO, and no entry is
//     scheduled in the past;
//   * the stream arm()s the FIFO's front when the FIFO goes from empty to
//     non-empty, and disarm()s when something other than fire() empties
//     it (a retraction, a link going down);
//   * the engine unarms the stream just before it calls fire(); fire()
//     pops the front, re-arms with the new front if one is left, and only
//     then acts on the popped entry, which may push new entries behind it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace netclone::sim {

class Simulator;

class Stream {
 public:
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

 protected:
  explicit Stream(Simulator& sim) : engine_(sim) {}
  /// Disarms: a stream destroyed with entries left takes its head out of
  /// the engine's order.
  ~Stream();

  /// Shows the engine the FIFO's front, due at `when` with tie-break
  /// `seq`. The stream must be unarmed.
  void arm(SimTime when, std::uint64_t seq);
  /// Takes the head out of the engine's order; a no-op when unarmed.
  void disarm();
  [[nodiscard]] bool armed() const { return heap_pos_ != kUnarmed; }

 private:
  friend class Simulator;

  static constexpr std::uint32_t kUnarmed = 0xFFFFFFFFU;

  /// The engine reached the head: pop it, re-arm with the next front, then
  /// act on the popped entry.
  virtual void fire() = 0;
  /// Entries waiting in the FIFO, the armed head included: the stream's
  /// share of Simulator::pending_events().
  [[nodiscard]] virtual std::size_t pending_events() const = 0;

  Simulator& engine_;
  /// Where the head sits in the engine's heap of heads.
  std::uint32_t heap_pos_ = kUnarmed;
};

}  // namespace netclone::sim

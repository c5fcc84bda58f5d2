// Deterministic discrete-event simulation engine.
//
// This is the time base substituting for the paper's physical testbed; all
// latency numbers in the reproduction are measured on this clock. Events at
// the same timestamp execute in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes every run bit-for-bit
// reproducible for a given seed.
//
// Pending events live in two places. A stream (stream.hpp) — a link, a
// client, a switch's loopback — keeps its own events in a time-ordered
// FIFO and shows the engine only the FIFO's head; the engine keeps the
// armed heads in a small indexed heap. Every other event (worker
// completions, retransmit timers, fault, harness and LÆDGE CPU events)
// lives in the slot-map arena of event_arena.hpp, whose O(log n)
// cancellation removes the event from the queue, destroys its callback
// (and whatever it captured) at once, and keeps pending_events() exact; a
// stale EventId never cancels a later event that reuses its slot. Both
// draw their tie-break numbers from one counter (draw_seq), and the run
// loop fires whichever of the two tops comes first by (when, seq), so the
// order is the one a single queue of every event would give.
//
// Components hold a Simulator& and call now/schedule_at/schedule_after/
// cancel (or arm their stream) directly, so the schedule/fire cycle
// inlines into them; the owner of the engine (the harness, tests, benches)
// also runs the loop.
#pragma once

#include <cstdint>
#include <utility>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/event_arena.hpp"
#include "sim/quad_heap.hpp"
#include "sim/stream.hpp"

namespace netclone::sim {

class Simulator {
 public:
  Simulator() = default;
  /// Unarms the streams that outlive the engine, so their destructors do
  /// not reach back into it.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `when` (must not be in the past).
  EventId schedule_at(SimTime when, EventCallback action) {
    NETCLONE_CHECK(when >= now_, "cannot schedule an event in the past");
    return events_.insert(when, std::move(action));
  }

  /// Schedules `action` after `delay` (must be non-negative).
  EventId schedule_after(SimTime delay, EventCallback action) {
    NETCLONE_CHECK(delay >= SimTime::zero(), "negative delay");
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Removes a pending event in O(log n), destroying its callback.
  /// Cancelling an invalid, already-fired or already-cancelled event is a
  /// harmless no-op.
  void cancel(EventId id) { events_.cancel(id); }

  /// The tie-break number of a stream entry scheduled now: draw it at the
  /// call that schedules the entry, as schedule_at draws one.
  std::uint64_t draw_seq() { return events_.draw_seq(); }

  /// Runs events until the queue empties or `stop()` is called.
  void run();

  /// Runs events with time <= deadline; leaves later events pending and
  /// advances the clock to the deadline.
  void run_until(SimTime deadline);

  /// Executes the single earliest event. Returns false if none is pending.
  bool step() { return fire_next(SimTime::max()); }

  /// Requests run()/run_until() to return after the current event.
  void stop() { stopped_ = true; }

  /// Exact count of pending (scheduled, not yet fired or cancelled)
  /// events: the arena's plus every stream's entries.
  [[nodiscard]] std::size_t pending_events() const;

  /// Total events executed since construction (telemetry).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  friend class Stream;

  /// An armed stream's head in the engine's order.
  struct StreamHead {
    SimTime when;
    std::uint64_t seq;
    Stream* stream;

    /// (when, seq) as one 128-bit number (when is never negative); seqs are
    /// unique, so no two heads tie.
    friend bool operator<(const StreamHead& a, const StreamHead& b) {
      __extension__ using U128 = unsigned __int128;
      const auto packed = [](const StreamHead& h) {
        return (U128{static_cast<std::uint64_t>(h.when.ns())} << 64) | h.seq;
      };
      return packed(a) < packed(b);
    }
  };

  /// Records each head's heap position in its stream.
  struct TrackStream {
    void operator()(const StreamHead& head, std::uint32_t pos) const {
      head.stream->heap_pos_ = pos;
    }
  };

  /// Fires the earliest event due by `deadline`, an arena event or a
  /// stream's head. Returns false when none is due.
  bool fire_next(SimTime deadline) {
    const StreamHead* head = streams_.top();
    if (head != nullptr && events_.none_before(head->when, head->seq)) {
      if (head->when > deadline) {
        return false;
      }
      now_ = head->when;
      ++executed_;
      Stream& stream = *head->stream;
      stream.heap_pos_ = Stream::kUnarmed;
      streams_.pop_top();
      stream.fire();
      return true;
    }
    SimTime when;
    EventCallback action;
    if (!events_.pop_due(deadline, when, action)) {
      return false;
    }
    now_ = when;
    ++executed_;
    action();
    return true;
  }

  void arm(Stream& stream, SimTime when, std::uint64_t seq) {
    NETCLONE_CHECK(!stream.armed(), "stream armed twice");
    NETCLONE_CHECK(when >= now_, "stream head in the past");
    streams_.push(StreamHead{when, seq, &stream});
  }

  void disarm(Stream& stream) {
    if (stream.armed()) {
      const std::size_t pos = stream.heap_pos_;
      stream.heap_pos_ = Stream::kUnarmed;
      streams_.erase(pos);
    }
  }

  EventArena events_;
  /// Heads of the armed streams.
  QuadHeap<StreamHead, TrackStream> streams_{TrackStream{}};
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

inline Stream::~Stream() {
  if (armed()) {  // unarmed, the engine may already be gone
    engine_.disarm(*this);
  }
}

inline void Stream::arm(SimTime when, std::uint64_t seq) {
  engine_.arm(*this, when, seq);
}

inline void Stream::disarm() { engine_.disarm(*this); }

}  // namespace netclone::sim

// Deterministic discrete-event simulation engine.
//
// This is the time base substituting for the paper's physical testbed; all
// latency numbers in the reproduction are measured on this clock. Events at
// the same timestamp execute in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes every run bit-for-bit
// reproducible for a given seed.
//
// Components (links, switches, hosts, the LÆDGE coordinator) hold a
// Simulator& and call now/schedule_at/schedule_after/cancel directly, so
// the schedule/fire cycle inlines into them; the owner of the engine (the
// harness, tests, benches) also runs the loop. Event storage is the
// slot-map arena in event_arena.hpp, whose O(log n) cancellation removes
// the event from the queue, destroys its callback (and whatever it
// captured) at once, and keeps pending_events() exact; a stale EventId
// never cancels a later event that reuses its slot.
#pragma once

#include <cstdint>
#include <utility>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/event_arena.hpp"

namespace netclone::sim {

class Simulator {
 public:
  Simulator() = default;
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

  /// Runs events until the queue empties or `stop()` is called.
  void run();

  /// Runs events with time <= deadline; leaves later events pending and
  /// advances the clock to the deadline.
  void run_until(SimTime deadline);

  /// Executes the single earliest event. Returns false if none is pending.
  bool step() {
    SimTime when;
    EventCallback action;
    if (!events_.pop(when, action)) {
      return false;
    }
    now_ = when;
    ++executed_;
    action();
    return true;
  }

  /// Requests run()/run_until() to return after the current event.
  void stop() { stopped_ = true; }

  /// Exact count of pending (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t pending_events() const { return events_.size(); }

  /// Total events executed since construction (telemetry).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  EventArena events_;
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace netclone::sim

// Deterministic discrete-event simulation engine.
//
// This is the time base substituting for the paper's physical testbed; all
// latency numbers in the reproduction are measured on this clock. Events at
// the same timestamp execute in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes every run bit-for-bit
// reproducible for a given seed.
//
// Only the owner of the event loop (the harness, tests, benches) includes
// this header. Components schedule through the Scheduler interface in
// scheduler.hpp; event storage is the slot-map arena in event_arena.hpp,
// whose O(log n) cancellation removes the event from the queue and keeps
// pending_events() exact.
#pragma once

#include <cstdint>
#include <utility>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/event_arena.hpp"
#include "sim/scheduler.hpp"

namespace netclone::sim {

class Simulator final : public Scheduler {
 public:
  Simulator() = default;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const override { return now_; }

  /// Schedules `action` at absolute time `when` (must not be in the past).
  // Defined inline (as are cancel and step): the schedule/fire cycle must
  // inline into the caller when the concrete engine type is known.
  EventId schedule_at(SimTime when, EventCallback action) override {
    NETCLONE_CHECK(when >= now_, "cannot schedule an event in the past");
    return events_.insert(when, std::move(action));
  }

  /// Reserves the next tie-break sequence number (see Scheduler).
  [[nodiscard]] std::uint64_t reserve_seq() override {
    return events_.reserve_seq();
  }

  /// Schedules `action` under a previously reserved tie-break number.
  EventId schedule_at_seq(SimTime when, std::uint64_t seq,
                          EventCallback action) override {
    NETCLONE_CHECK(when >= now_, "cannot schedule an event in the past");
    return events_.insert_at_seq(when, seq, std::move(action));
  }

  /// Removes a pending event in O(log n), destroying its callback.
  /// Cancelling an already-fired or already-cancelled event is a harmless
  /// no-op.
  void cancel(EventId id) override { events_.cancel(id); }

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

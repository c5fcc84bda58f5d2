#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace netclone::sim {
namespace {

using namespace netclone::literals;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_events(), 0U);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30_ns, [&] { order.push_back(3); });
  sim.schedule_at(10_ns, [&] { order.push_back(1); });
  sim.schedule_at(20_ns, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ns);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5_ns, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  sim.schedule_at(10_ns, [&] {
    sim.schedule_after(5_ns, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 15_ns);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(10_ns, [&] {
    EXPECT_THROW((void)sim.schedule_at(5_ns, [] {}), CheckFailure);
    EXPECT_THROW((void)sim.schedule_after(SimTime::nanoseconds(-1), [] {}),
                 CheckFailure);
  });
  sim.run();
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10_ns, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsHarmless) {
  Simulator sim;
  const EventId id = sim.schedule_at(1_ns, [] {});
  sim.run();
  sim.cancel(id);  // must not crash or corrupt
  sim.schedule_at(2_ns, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 2U);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(20_ns, [&] { ++fired; });
  sim.schedule_at(30_ns, [&] { ++fired; });
  sim.run_until(20_ns);  // inclusive boundary
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20_ns);
  EXPECT_EQ(sim.pending_events(), 1U);
  sim.run_until(100_ns);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 100_ns);  // clock advances to the deadline
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.run_until(42_ns);
  EXPECT_EQ(sim.now(), 42_ns);
}

TEST(Simulator, StopInterruptsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_ns, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2_ns, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes with remaining events
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_ns, [&] { ++fired; });
  sim.schedule_at(2_ns, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      sim.schedule_after(1_ns, chain);
    }
  };
  sim.schedule_at(0_ns, chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99_ns);
}

TEST(Simulator, PendingEventsTracksCancellations) {
  Simulator sim;
  const EventId a = sim.schedule_at(1_ns, [] {});
  sim.schedule_at(2_ns, [] {});
  EXPECT_EQ(sim.pending_events(), 2U);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1U);
}

TEST(Simulator, PendingEventsIsExactAcrossTheEventLifecycle) {
  Simulator sim;
  int fired = 0;
  const EventId a = sim.schedule_at(1_ns, [&] { ++fired; });
  const EventId b = sim.schedule_at(2_ns, [&] { ++fired; });
  sim.schedule_at(3_ns, [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 3U);

  sim.cancel(b);  // cancellation is removal, not deferred bookkeeping
  EXPECT_EQ(sim.pending_events(), 2U);

  EXPECT_TRUE(sim.step());  // fires a
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1U);

  sim.cancel(b);  // re-cancelling the cancelled event: no change
  EXPECT_EQ(sim.pending_events(), 1U);
  sim.cancel(a);  // cancelling the fired event: no change
  EXPECT_EQ(sim.pending_events(), 1U);

  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending_events(), 0U);
}

TEST(Simulator, StaleIdCannotCancelAnEventReusingItsStorage) {
  Simulator sim;
  bool a_fired = false;
  bool b_fired = false;
  const EventId a = sim.schedule_at(10_ns, [&] { a_fired = true; });
  sim.cancel(a);
  // b is free to reuse a's storage; a's handle must stay inert.
  sim.schedule_at(10_ns, [&] { b_fired = true; });
  sim.cancel(a);
  sim.run();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(Simulator, CancelFromWithinACallback) {
  Simulator sim;
  bool fired = false;
  const EventId doomed = sim.schedule_at(2_ns, [&] { fired = true; });
  sim.schedule_at(1_ns, [&] { sim.cancel(doomed); });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed_events(), 1U);
}

TEST(Simulator, CancelDestroysTheCallbackImmediately) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  const EventId id = sim.schedule_at(10_ns, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  sim.cancel(id);
  // The capture is released at cancel time, not when the queue drains.
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, MoveOnlyCapturesAreSupported) {
  // std::function cannot hold this; EventCallback must.
  Simulator sim;
  auto payload = std::make_unique<int>(9);
  int seen = 0;
  sim.schedule_at(1_ns,
                  [p = std::move(payload), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 9);
}

TEST(Simulator, DefaultEventIdIsInvalidAndHarmless) {
  Simulator sim;
  EXPECT_FALSE(EventId{}.valid());
  sim.cancel(EventId{});  // no-op
  bool fired = false;
  const EventId id = sim.schedule_at(1_ns, [&] { fired = true; });
  EXPECT_TRUE(id.valid());
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, DeterministicAcrossRuns) {
  // Two identical schedules must execute identically (same order ids).
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime::nanoseconds((i * 7) % 13),
                      [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace netclone::sim

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "wire/framebuf.hpp"

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
      sim.schedule_after(1_ns, [&chain] { chain(); });
    }
  };
  sim.schedule_at(0_ns, [&chain] { chain(); });
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

/// Stands in for a component: it owns a frame and a shared object, and
/// its events capture `this` and integers, as a client's retransmit timer
/// and a server's worker completion do.
struct Owner {
  wire::FrameHandle frame;
  std::shared_ptr<std::uint64_t> shared =
      std::make_shared<std::uint64_t>(1);
  std::uint64_t fired = 0;

  auto retransmit_timer(std::uint32_t client_seq) {
    return [this, client_seq] { fired += client_seq; };
  }
  auto worker_completion(std::uint64_t epoch, std::size_t slot) {
    return [this, epoch, slot] { fired += epoch * slot; };
  }
  auto holding_frame() {
    return [this, held = frame] { fired += held.size(); };
  }
  auto holding_shared() {
    return [this, held = shared] { fired += *held; };
  }
};

TEST(Simulator, OnlyPlainDataCapturesBecomeEvents) {
  using Timer = decltype(std::declval<Owner&>().retransmit_timer(0));
  using Completion = decltype(std::declval<Owner&>().worker_completion(0, 0));
  using HoldsFrame = decltype(std::declval<Owner&>().holding_frame());
  using HoldsShared = decltype(std::declval<Owner&>().holding_shared());
  static_assert(std::is_convertible_v<Timer, EventCallback>);
  static_assert(std::is_convertible_v<Completion, EventCallback>);
  static_assert(sizeof(Completion) <= EventCallback::kInlineCapacity);
  // A capture that owns something stays in its component.
  static_assert(!std::is_constructible_v<EventCallback, HoldsFrame>);
  static_assert(!std::is_convertible_v<HoldsFrame, EventCallback>);
  static_assert(!std::is_constructible_v<EventCallback, HoldsShared>);
  static_assert(!std::is_convertible_v<HoldsShared, EventCallback>);

  Simulator sim;
  Owner owner;
  sim.schedule_at(1_ns, owner.retransmit_timer(2));
  const EventId cancelled =
      sim.schedule_at(2_ns, owner.worker_completion(3, 4));
  sim.schedule_at(3_ns, owner.worker_completion(5, 6));
  sim.cancel(cancelled);
  sim.run();
  EXPECT_EQ(owner.fired, 2U + 30U);
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

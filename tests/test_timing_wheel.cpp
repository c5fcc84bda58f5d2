// Property tests for the hierarchical timing wheel behind the event
// engine (sim/event_arena.hpp): window rollover into and out of the
// overflow heap, cancellation in every tier, dense same-timestamp FIFO
// order (including reservations materialized out of order or mid-drain),
// and a randomized schedule/cancel/run sweep checked against a sort-based
// reference model.
#include "sim/event_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace netclone::sim {
namespace {

using namespace netclone::literals;

/// One tick = 1 ns; the wheel covers 2^32 ticks before the overflow heap
/// takes over (see event_arena.hpp).
constexpr std::int64_t kWindowNs = std::int64_t{1} << 32;

TEST(TimingWheel, EventsBeyondTheWheelWindowFireInOrder) {
  Simulator sim;
  std::vector<int> order;
  // Deliberately scheduled shuffled: two wheel-resident events, one at
  // the last tick of the window, and three overflow events in distinct
  // 2^32-tick windows.
  sim.schedule_at(SimTime::nanoseconds(3 * kWindowNs + 7),
                  [&] { order.push_back(6); });
  sim.schedule_at(1_ns, [&] { order.push_back(1); });
  sim.schedule_at(SimTime::nanoseconds(kWindowNs + 1),
                  [&] { order.push_back(4); });
  sim.schedule_at(SimTime::nanoseconds(kWindowNs - 1),
                  [&] { order.push_back(3); });
  sim.schedule_at(SimTime::nanoseconds(2 * kWindowNs),
                  [&] { order.push_back(5); });
  sim.schedule_at(100_us, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(sim.now(), SimTime::nanoseconds(3 * kWindowNs + 7));
}

TEST(TimingWheel, DenseRolloverAcrossTheWindowBoundary) {
  // 200 back-to-back ticks straddling the 2^32 boundary, inserted in a
  // deterministic shuffle: the first half lands in the wheel, the second
  // half in the overflow heap, and extraction must interleave them into
  // one monotone run.
  Simulator sim;
  const std::int64_t base = kWindowNs - 100;
  std::vector<std::int64_t> offsets;
  for (std::int64_t i = 0; i < 200; ++i) {
    offsets.push_back(i);
  }
  Rng rng{2024};
  for (std::size_t i = offsets.size(); i > 1; --i) {
    std::swap(offsets[i - 1], offsets[rng.next_below(i)]);
  }
  std::vector<std::int64_t> fired;
  for (const std::int64_t off : offsets) {
    sim.schedule_at(SimTime::nanoseconds(base + off),
                    [&fired, off] { fired.push_back(off); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 200U);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(TimingWheel, CancelRemovesEventsInEveryTier) {
  // One doomed + one surviving event per tier: level 0 (tick-resolution
  // bucket), levels 1-3 (coarser strides), and the overflow heap.
  Simulator sim;
  const SimTime tiers[] = {
      10_ns,                           // level 0
      1_us,                            // level 1
      100_us,                          // level 2
      20_ms,                           // level 3
      SimTime::nanoseconds(kWindowNs + 500),  // overflow heap
  };
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 5; ++i) {
    doomed.push_back(
        sim.schedule_at(tiers[i], [&] { FAIL() << "cancelled event fired"; }));
    sim.schedule_at(tiers[i], [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.pending_events(), 10U);
  for (const EventId id : doomed) {
    sim.cancel(id);
  }
  EXPECT_EQ(sim.pending_events(), 5U);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.executed_events(), 5U);
}

TEST(TimingWheel, DenseSameTickBucketDrainsInSeqOrder) {
  // 500 events on one tick with interleaved cancellations: the bucket is
  // sorted once and drains in scheduling order, skipping tombstones.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(sim.schedule_at(5_us, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 500; i += 3) {
    sim.cancel(ids[static_cast<std::size_t>(i)]);
  }
  sim.run();
  std::vector<int> expected;
  for (int i = 0; i < 500; ++i) {
    if (i % 3 != 0) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(TimingWheel, ReservedSeqsMaterializedOutOfOrderFireInSeqOrder) {
  // Reservations hold their place in the same-timestamp tie order no
  // matter when insert_at_seq materializes them.
  Simulator sim;
  const std::uint64_t r1 = sim.reserve_seq();
  const std::uint64_t r2 = sim.reserve_seq();
  const std::uint64_t r3 = sim.reserve_seq();
  std::vector<int> order;
  sim.schedule_at_seq(10_ns, r3, [&] { order.push_back(3); });
  sim.schedule_at_seq(10_ns, r1, [&] { order.push_back(1); });
  sim.schedule_at(10_ns, [&] { order.push_back(4); });  // drawn after r3
  sim.schedule_at_seq(10_ns, r2, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(TimingWheel, ReservationMaterializedMidDrainKeepsItsPlace) {
  // The deferred-scheduler pattern (the link delivery FIFO): a
  // callback materializes a reservation at the very tick being drained,
  // with a seq smaller than entries already waiting in the bucket.
  Simulator sim;
  std::vector<int> order;
  std::uint64_t reserved = 0;  // assigned below, between A and B
  sim.schedule_at(10_ns, [&] {  // A
    order.push_back(0);
    // `reserved` was drawn before B and C drew their seqs, so this event
    // must run before both even though it is inserted mid-drain.
    sim.schedule_at_seq(10_ns, reserved, [&] { order.push_back(1); });
  });
  reserved = sim.reserve_seq();
  sim.schedule_at(10_ns, [&] { order.push_back(2); });  // B
  sim.schedule_at(10_ns, [&] { order.push_back(3); });  // C
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TimingWheel, PeekThenEarlierInsertRewindsTheOrigin) {
  // External peek() may advance the wheel origin; inserting before it
  // afterwards must rewind instead of corrupting the order. Exercised on
  // the arena directly — the engine's clock never trails this way.
  EventArena arena;
  arena.insert(100_ns, [] {});
  SimTime when;
  ASSERT_TRUE(arena.peek(when));
  EXPECT_EQ(when, 100_ns);
  arena.insert(50_ns, [] {});
  ASSERT_TRUE(arena.peek(when));
  EXPECT_EQ(when, 50_ns);
  EventCallback cb;
  ASSERT_TRUE(arena.pop(when, cb));
  EXPECT_EQ(when, 50_ns);
  ASSERT_TRUE(arena.pop(when, cb));
  EXPECT_EQ(when, 100_ns);
  EXPECT_TRUE(arena.empty());
}

TEST(TimingWheel, PopDueNeverAdvancesTheOriginPastTheDeadline) {
  // A bounded pop that finds nothing due must leave the origin at or
  // before the deadline, so later inserts between the deadline and the
  // pending event do not rewind.
  EventArena arena;
  arena.insert(1_us, [] {});
  SimTime when;
  EventCallback cb;
  EXPECT_FALSE(arena.pop_due(500_ns, when, cb));
  arena.insert(600_ns, [] {});  // between the deadline and the pending event
  ASSERT_TRUE(arena.pop_due(2_us, when, cb));
  EXPECT_EQ(when, 600_ns);
  ASSERT_TRUE(arena.pop_due(2_us, when, cb));
  EXPECT_EQ(when, 1_us);
}

TEST(TimingWheel, RandomizedScheduleCancelRunMatchesReferenceModel) {
  // Property sweep: random schedules across every tier (including heavy
  // same-tick ties and overflow-window jumps), random cancellations of
  // not-yet-fired events, and run_until() to random deadlines. The global
  // firing order must equal the reference: all surviving events sorted by
  // (when, scheduling order).
  Simulator sim;
  Rng rng{0xFEEDFACE};
  struct Ref {
    SimTime when;
    std::uint64_t order;
    std::size_t idx;
  };
  std::vector<Ref> refs;
  std::vector<EventId> ids;
  std::vector<char> fired;
  std::vector<char> cancelled;
  std::vector<std::size_t> fire_order;
  std::uint64_t order_counter = 0;

  // Spreads chosen to hit: dense ties, level-0/1/2 buckets, level 3, and
  // the overflow heap (beyond the 2^32-tick window).
  const std::uint64_t spreads[] = {16, 200, 60'000, 5'000'000,
                                   3'000'000'000, 8'000'000'000};
  for (int round = 0; round < 30; ++round) {
    const std::size_t batch = 1 + rng.next_below(40);
    for (std::size_t i = 0; i < batch; ++i) {
      const std::uint64_t spread = spreads[rng.next_below(6)];
      const SimTime when =
          sim.now() + SimTime::nanoseconds(static_cast<std::int64_t>(
                          1 + rng.next_below(spread)));
      const std::size_t idx = ids.size();
      ids.push_back(sim.schedule_at(when, [&fire_order, &fired, idx] {
        fire_order.push_back(idx);
        fired[idx] = 1;
      }));
      fired.push_back(0);
      cancelled.push_back(0);
      refs.push_back(Ref{when, order_counter++, idx});
    }
    const std::size_t cancels = rng.next_below(8);
    for (std::size_t i = 0; i < cancels; ++i) {
      const std::size_t idx = rng.next_below(ids.size());
      if (fired[idx] == 0 && cancelled[idx] == 0) {
        sim.cancel(ids[idx]);
        cancelled[idx] = 1;
      }
    }
    sim.run_until(sim.now() + SimTime::nanoseconds(static_cast<std::int64_t>(
                                  rng.next_below(2'000'000'000))));
  }
  sim.run();

  std::vector<Ref> live;
  for (const Ref& ref : refs) {
    if (cancelled[ref.idx] == 0) {
      live.push_back(ref);
    }
  }
  std::sort(live.begin(), live.end(), [](const Ref& a, const Ref& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.order < b.order;
  });
  std::vector<std::size_t> expected;
  expected.reserve(live.size());
  for (const Ref& ref : live) {
    expected.push_back(ref.idx);
  }
  EXPECT_EQ(fire_order, expected);
  EXPECT_EQ(sim.executed_events(), expected.size());
}

}  // namespace
}  // namespace netclone::sim

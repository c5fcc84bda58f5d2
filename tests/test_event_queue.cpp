// Property tests for the indexed heap behind the event engine
// (sim/event_arena.hpp): ordering out to far horizons (past 2^32 ns),
// cancellation at every distance, dense same-timestamp FIFO order
// (including reservations materialized out of order or mid-drain), and
// two randomized schedule/cancel/run sweeps — one driven from outside the
// run loop, one from inside callbacks — checked against a sort-based
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

/// 2^32 ns (about 4.29 s): past any benchmark workload's simulated time,
/// and past anything a 32-bit nanosecond offset could hold.
constexpr std::int64_t kWindowNs = std::int64_t{1} << 32;

TEST(EventQueue, FarHorizonEventsFireInOrder) {
  Simulator sim;
  std::vector<int> order;
  // Deliberately scheduled shuffled: two near events, one at the last
  // nanosecond before 2^32, and three far events in distinct 2^32-ns
  // windows.
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

TEST(EventQueue, DenseShuffledRunAtTheFarHorizonFiresInOrder) {
  // 200 back-to-back nanoseconds straddling 2^32 ns, inserted in a
  // deterministic shuffle: extraction must return them as one monotone
  // run.
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

TEST(EventQueue, CancelRemovesEventsAtEveryDistance) {
  // One doomed + one surviving event per distance, from nanoseconds to
  // beyond 2^32 ns.
  Simulator sim;
  const SimTime distances[] = {
      10_ns,
      1_us,
      100_us,
      20_ms,
      SimTime::nanoseconds(kWindowNs + 500),
  };
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 5; ++i) {
    doomed.push_back(sim.schedule_at(
        distances[i], [&] { FAIL() << "cancelled event fired"; }));
    sim.schedule_at(distances[i], [&order, i] { order.push_back(i); });
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

TEST(EventQueue, DenseSameTimestampFiresInSeqOrder) {
  // 500 events at one timestamp with interleaved cancellations: the
  // survivors fire in scheduling order.
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

TEST(EventQueue, ReservedSeqsMaterializedOutOfOrderFireInSeqOrder) {
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

TEST(EventQueue, ReservationMaterializedMidDrainKeepsItsPlace) {
  // The deferred-scheduler pattern (the link delivery FIFO): a
  // callback materializes a reservation at the very timestamp being run,
  // with a seq smaller than events already waiting at that timestamp.
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

TEST(EventQueue, InsertAfterAMissedPopDueFiresInTimeOrder) {
  // A bounded pop that finds nothing due must consume nothing, so a
  // later insert between the deadline and the pending event fires first.
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

TEST(EventQueue, RandomizedScheduleCancelRunMatchesReferenceModel) {
  // Property sweep: random schedules at every distance (including heavy
  // same-timestamp ties and jumps past 2^32 ns), random cancellations of
  // up to half the pending events each round (removals from the heap's
  // interior, sifting both ways), and run_until() to random deadlines.
  // The global firing order must equal the reference: all surviving
  // events sorted by (when, scheduling order).
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

  // Spreads chosen to hit: dense ties, sub-microsecond to millisecond
  // gaps, and seconds past 2^32 ns.
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
    std::vector<std::size_t> pending;
    for (std::size_t idx = 0; idx < ids.size(); ++idx) {
      if (fired[idx] == 0 && cancelled[idx] == 0) {
        pending.push_back(idx);
      }
    }
    ASSERT_EQ(sim.pending_events(), pending.size());
    const std::size_t cancels = rng.next_below(pending.size() / 2 + 1);
    for (std::size_t i = 0; i < cancels; ++i) {
      const std::size_t pick = rng.next_below(pending.size());
      const std::size_t idx = pending[pick];
      pending[pick] = pending.back();
      pending.pop_back();
      sim.cancel(ids[idx]);
      cancelled[idx] = 1;
    }
    ASSERT_EQ(sim.pending_events(), pending.size());
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

/// Loads the engine from inside its own callbacks: each firing event
/// schedules 0-2 follow-ups and sometimes cancels a pending event.
struct CallbackWorkload {
  struct Ref {
    SimTime when;
    std::size_t idx;  // scheduling order
  };

  Simulator sim;
  Rng rng{0xC0FFEE};
  std::vector<Ref> refs;
  std::vector<EventId> ids;
  std::vector<char> done;  // fired or cancelled
  std::vector<std::size_t> fire_order;
  std::size_t cancels = 0;

  void schedule(SimTime when) {
    const std::size_t idx = ids.size();
    refs.push_back(Ref{when, idx});
    done.push_back(0);
    ids.push_back(sim.schedule_at(when, [this, idx] { fire(idx); }));
  }

  void fire(std::size_t idx) {
    fire_order.push_back(idx);
    done[idx] = 1;
    if (ids.size() < 20'000) {
      const std::size_t children = rng.next_below(3);
      for (std::size_t c = 0; c < children; ++c) {
        schedule(sim.now() + SimTime::nanoseconds(static_cast<std::int64_t>(
                                 rng.next_below(c == 0 ? 4 : 5'000))));
      }
    }
    if (rng.next_below(4) == 0) {
      // Cancel a random event if it is still pending.
      const std::size_t victim = rng.next_below(ids.size());
      if (done[victim] == 0) {
        sim.cancel(ids[victim]);
        done[victim] = 1;
        ++cancels;
      }
    }
  }
};

TEST(EventQueue, CallbacksThatScheduleAndCancelMatchTheReferenceModel) {
  // Events scheduled and cancelled from inside callbacks, as the
  // simulation's components do: a pop leaves the heap's root vacant until
  // the next operation, and each kind of next operation (an insert that
  // fills the root, a cancel, a further pop) must keep the order.
  // Scheduling never goes into the past, so the reference stays all
  // surviving events sorted by (when, scheduling order).
  using Ref = CallbackWorkload::Ref;
  CallbackWorkload d;
  for (int i = 0; i < 300; ++i) {
    d.schedule(SimTime::nanoseconds(
        static_cast<std::int64_t>(d.rng.next_below(10'000))));
  }
  d.sim.run();
  ASSERT_EQ(d.sim.pending_events(), 0U);

  std::vector<char> fired(d.refs.size(), 0);
  for (const std::size_t idx : d.fire_order) {
    fired[idx] = 1;
  }
  std::vector<Ref> live;
  for (const Ref& ref : d.refs) {
    if (fired[ref.idx] != 0) {
      live.push_back(ref);
    }
  }
  EXPECT_EQ(live.size() + d.cancels, d.refs.size());
  std::sort(live.begin(), live.end(), [](const Ref& a, const Ref& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.idx < b.idx;
  });
  std::vector<std::size_t> expected;
  expected.reserve(live.size());
  for (const Ref& ref : live) {
    expected.push_back(ref.idx);
  }
  EXPECT_EQ(d.fire_order, expected);
  EXPECT_GT(d.cancels, 100U);
}

}  // namespace
}  // namespace netclone::sim

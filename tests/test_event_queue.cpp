// Property tests for the event engine's two queues: the arena's indexed
// heap (sim/event_arena.hpp) — ordering out to far horizons (past
// 2^32 ns), cancellation at every distance, dense same-timestamp FIFO
// order, and two randomized schedule/cancel/run sweeps, one driven from
// outside the run loop, one from inside callbacks — and its merge with
// event streams (sim/stream.hpp), swept with fake streams. Every sweep is
// checked against a sort-based reference model.
#include "sim/event_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/stream.hpp"

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

/// Reference record of one scheduled event, arena-held or a stream entry:
/// `order` is its place in scheduling order, which is the order of the
/// engine's tie-break draws.
struct MergeRef {
  SimTime when;
  std::uint64_t order;
};

/// A stream as the simulator's components keep one: a FIFO of (when, seq)
/// entries that never decrease, armed while non-empty. Pushes come from
/// the test or from firing events; retract_back() and clear() take
/// entries back the way Link::retract_not_ready and Link::set_up do.
class FakeStream final : public Stream {
 public:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::size_t idx;
  };

  FakeStream(Simulator& sim, std::vector<std::size_t>& fire_order)
      : Stream(sim), sim_(sim), fire_order_(fire_order) {}

  /// Appends an entry due at `when` (not before the back's).
  void push(SimTime when, std::size_t idx) {
    Entry& entry = fifo_.emplace_back(Entry{when, sim_.draw_seq(), idx});
    if (fifo_.size() == 1) {
      arm(entry.when, entry.seq);
    }
  }

  /// Removes up to `n` entries from the back; returns their indices.
  std::vector<std::size_t> retract_back(std::size_t n) {
    std::vector<std::size_t> removed;
    while (n-- > 0 && !fifo_.empty()) {
      removed.push_back(fifo_.back().idx);
      fifo_.pop_back();
    }
    if (fifo_.empty()) {
      disarm();
    }
    return removed;
  }

  std::vector<std::size_t> clear() {
    return retract_back(fifo_.size());
  }

  [[nodiscard]] bool empty() const { return fifo_.empty(); }
  [[nodiscard]] SimTime back_when() const { return fifo_.back().when; }
  [[nodiscard]] bool is_armed() const { return armed(); }

  /// Runs after each firing, with the popped entry's index: may push
  /// follow-ups, into this stream included.
  std::function<void(std::size_t)> on_fire;

 private:
  void fire() override {
    const Entry front = fifo_.front();
    fifo_.pop_front();
    if (!fifo_.empty()) {
      arm(fifo_.front().when, fifo_.front().seq);
    }
    EXPECT_EQ(sim_.now(), front.when);
    fire_order_.push_back(front.idx);
    if (on_fire) {
      on_fire(front.idx);
    }
  }
  [[nodiscard]] std::size_t pending_events() const override {
    return fifo_.size();
  }

  Simulator& sim_;
  std::vector<std::size_t>& fire_order_;
  Ring<Entry> fifo_;
};

/// Sorts the surviving references by (when, scheduling order) into the
/// expected firing order.
std::vector<std::size_t> expected_order(const std::vector<MergeRef>& refs,
                                        const std::vector<char>& removed) {
  std::vector<std::size_t> live;
  for (std::size_t idx = 0; idx < refs.size(); ++idx) {
    if (removed[idx] == 0) {
      live.push_back(idx);
    }
  }
  std::sort(live.begin(), live.end(), [&refs](std::size_t a, std::size_t b) {
    if (refs[a].when != refs[b].when) {
      return refs[a].when < refs[b].when;
    }
    return refs[a].order < refs[b].order;
  });
  return live;
}

TEST(EventStreams, RandomizedStreamsAndArenaMatchTheReferenceModel) {
  // Several streams pushed to, retracted from the back and cleared,
  // interleaved with arena inserts and cancels, and run to random
  // deadlines. Times come from a few nanoseconds' spread half the time,
  // so stream heads and arena events tie at the same nanosecond. Every
  // fired stream entry may push a follow-up into a random stream — its
  // own included, as a loopback copy that loops back again does. Events
  // must fire in the order of a sort by (when, scheduling order), and
  // pending_events() must be exact every round.
  Simulator sim;
  Rng rng{0x5EEDBEEF};
  std::vector<MergeRef> refs;
  std::vector<char> removed;  // retracted, cleared or cancelled
  std::vector<char> fired;
  std::vector<std::size_t> fire_order;
  std::vector<EventId> arena_ids;  // per ref; invalid for stream entries
  std::uint64_t order = 0;

  std::deque<FakeStream> streams;
  for (int i = 0; i < 5; ++i) {
    streams.emplace_back(sim, fire_order);
  }
  const auto new_ref = [&](SimTime when) {
    refs.push_back(MergeRef{when, order++});
    removed.push_back(0);
    fired.push_back(0);
    arena_ids.emplace_back();
    return refs.size() - 1;
  };
  const auto draw_delay = [&rng] {
    return SimTime::nanoseconds(static_cast<std::int64_t>(
        rng.next_below(2) == 0 ? rng.next_below(3) : rng.next_below(5'000)));
  };
  const auto push_to = [&](FakeStream& stream) {
    SimTime when = sim.now();
    if (!stream.empty() && stream.back_when() > when) {
      when = stream.back_when();
    }
    when = when + draw_delay();
    stream.push(when, new_ref(when));
  };
  for (FakeStream& stream : streams) {
    stream.on_fire = [&](std::size_t idx) {
      fired[idx] = 1;
      if (refs.size() < 20'000 && rng.next_below(3) == 0) {
        push_to(streams[rng.next_below(streams.size())]);
      }
    };
  }
  const auto pending = [&] {
    std::size_t n = 0;
    for (std::size_t idx = 0; idx < refs.size(); ++idx) {
      n += (removed[idx] == 0 && fired[idx] == 0) ? 1U : 0U;
    }
    return n;
  };

  for (int round = 0; round < 200; ++round) {
    const std::size_t ops = 1 + rng.next_below(30);
    for (std::size_t i = 0; i < ops; ++i) {
      switch (rng.next_below(8)) {
        case 0:
        case 1:
        case 2: {  // arena insert
          const SimTime when = sim.now() + draw_delay();
          const std::size_t idx = new_ref(when);
          arena_ids[idx] = sim.schedule_at(when, [&fired, &fire_order, idx] {
            fired[idx] = 1;
            fire_order.push_back(idx);
          });
          break;
        }
        case 3:
        case 4:
        case 5:  // stream push
          push_to(streams[rng.next_below(streams.size())]);
          break;
        case 6: {  // arena cancel
          const std::size_t idx = rng.next_below(refs.size());
          if (arena_ids[idx].valid() && fired[idx] == 0 &&
              removed[idx] == 0) {
            sim.cancel(arena_ids[idx]);
            removed[idx] = 1;
          }
          break;
        }
        default: {  // retract from a stream's back, or clear it
          FakeStream& stream = streams[rng.next_below(streams.size())];
          const std::vector<std::size_t> taken =
              rng.next_below(4) == 0 ? stream.clear()
                                     : stream.retract_back(
                                           1 + rng.next_below(3));
          for (const std::size_t idx : taken) {
            removed[idx] = 1;
          }
          EXPECT_EQ(stream.is_armed(), !stream.empty());
          break;
        }
      }
    }
    ASSERT_EQ(sim.pending_events(), pending()) << "round " << round;
    sim.run_until(sim.now() + SimTime::nanoseconds(static_cast<std::int64_t>(
                                  rng.next_below(8'000))));
    ASSERT_EQ(sim.pending_events(), pending()) << "round " << round;
  }
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0U);
  for (const FakeStream& stream : streams) {
    EXPECT_FALSE(stream.is_armed());
  }

  const std::vector<std::size_t> expected = expected_order(refs, removed);
  EXPECT_EQ(fire_order, expected);
  EXPECT_EQ(sim.executed_events(), expected.size());
  std::size_t stream_fires = 0;
  for (const std::size_t idx : fire_order) {
    stream_fires += arena_ids[idx].valid() ? 0U : 1U;
  }
  EXPECT_GT(stream_fires, 1000U);
  EXPECT_GT(fire_order.size() - stream_fires, 1000U);
}

TEST(EventStreams, SameNanosecondTiesFireInSchedulingOrder) {
  // Arena events and two streams' entries, all at one instant, scheduled
  // alternately: they fire exactly in scheduling order, whichever queue
  // holds them. step() fires one at a time.
  Simulator sim;
  std::vector<std::size_t> fire_order;
  FakeStream a{sim, fire_order};
  FakeStream b{sim, fire_order};
  std::size_t idx = 0;
  for (int i = 0; i < 10; ++i) {
    a.push(3_us, idx++);
    sim.schedule_at(3_us,
                    [&fire_order, i = idx++] { fire_order.push_back(i); });
    b.push(3_us, idx++);
    b.push(3_us, idx++);
  }
  EXPECT_EQ(sim.pending_events(), idx);
  std::size_t steps = 0;
  while (sim.step()) {
    ++steps;
    EXPECT_EQ(sim.pending_events(), idx - steps);
  }
  std::vector<std::size_t> expected(idx);
  for (std::size_t i = 0; i < idx; ++i) {
    expected[i] = i;
  }
  EXPECT_EQ(fire_order, expected);
  EXPECT_EQ(sim.now(), 3_us);
}

TEST(EventStreams, AStreamDestroyedWhileArmedLeavesTheEngineConsistent) {
  Simulator sim;
  std::vector<std::size_t> fire_order;
  FakeStream kept{sim, fire_order};
  kept.push(1_us, 0);
  kept.push(4_us, 1);
  {
    FakeStream doomed{sim, fire_order};
    doomed.push(2_us, 2);
    doomed.push(3_us, 3);
    EXPECT_EQ(sim.pending_events(), 4U);
  }
  sim.schedule_at(2_us, [&fire_order] { fire_order.push_back(4); });
  EXPECT_EQ(sim.pending_events(), 3U);
  sim.run();
  EXPECT_EQ(fire_order, (std::vector<std::size_t>{0, 4, 1}));
  EXPECT_EQ(sim.executed_events(), 3U);
}

TEST(EventStreams, AnEngineDestroyedBeforeItsStreamsUnarmsThem) {
  // The other order of destruction: the engine goes while streams are
  // still armed, one of them armed from inside a firing, and the root of
  // the heads' heap vacant — it still names a stream destroyed after its
  // last firing. The streams then go without reaching back into the
  // engine (an address sanitizer build reports any access to it).
  auto sim = std::make_unique<Simulator>();
  std::vector<std::size_t> fire_order;
  FakeStream a{*sim, fire_order};
  FakeStream b{*sim, fire_order};
  b.push(2_us, 0);
  b.push(5_us, 1);
  {
    FakeStream arms_a{*sim, fire_order};
    arms_a.push(1_us, 2);
    arms_a.on_fire = [&a](std::size_t) { a.push(4_us, 3); };
    FakeStream last{*sim, fire_order};
    last.push(3_us, 4);
    ASSERT_TRUE(sim->step());  // arms_a fires and arms a
    ASSERT_TRUE(sim->step());  // b fires and re-arms
    ASSERT_TRUE(sim->step());  // last fires; nothing refills the root
    EXPECT_FALSE(arms_a.is_armed());
    EXPECT_FALSE(last.is_armed());
  }
  EXPECT_EQ(fire_order, (std::vector<std::size_t>{2, 0, 4}));
  EXPECT_TRUE(a.is_armed());
  EXPECT_TRUE(b.is_armed());
  EXPECT_EQ(sim->pending_events(), 2U);
  sim.reset();
  EXPECT_FALSE(a.is_armed());
  EXPECT_FALSE(b.is_armed());
}

}  // namespace
}  // namespace netclone::sim

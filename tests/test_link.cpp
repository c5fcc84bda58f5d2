#include "phys/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "phys/node.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace netclone::phys {
namespace {

using namespace netclone::literals;
using netclone::testing::CaptureNode;

wire::Frame frame_of_size(std::size_t n) {
  return wire::Frame(n, std::byte{0x42});
}

/// Records the simulated instant of every arrival.
class ArrivalClock : public Node {
 public:
  explicit ArrivalClock(const sim::Simulator& sim)
      : Node("clock"), sim_(sim) {}
  void handle_frame(std::size_t /*port*/,
                    wire::FrameHandle /*frame*/) override {
    arrivals.push_back(sim_.now());
  }

  std::vector<SimTime> arrivals;

 private:
  const sim::Simulator& sim_;
};

TEST(Link, DeliversWithPropagationAndSerializationDelay) {
  sim::Simulator sim;
  CaptureNode dst;
  LinkParams params;
  params.rate_bps = 100e9;       // 100 GbE: 1000 bytes = 80 ns
  params.delay = 850_ns;
  Link link{sim, params};
  link.connect_to(&dst, 3);

  link.transmit(frame_of_size(1000));
  sim.run();
  ASSERT_EQ(dst.received.size(), 1U);
  EXPECT_EQ(dst.received[0].port, 3U);
  EXPECT_EQ(sim.now(), 930_ns);  // 80 + 850
  EXPECT_EQ(link.stats().tx_frames, 1U);
  EXPECT_EQ(link.stats().tx_bytes, 1000U);
}

TEST(Link, BackToBackFramesSerialize) {
  sim::Simulator sim;
  CaptureNode dst;
  LinkParams params;
  params.rate_bps = 1e9;  // 1 Gb: 125 bytes = 1 us
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);

  link.transmit(frame_of_size(125));
  link.transmit(frame_of_size(125));
  sim.run();
  ASSERT_EQ(dst.received.size(), 2U);
  // Second frame waits for the first to finish serializing.
  EXPECT_EQ(sim.now(), 2_us);
}

TEST(Link, QueueOverflowDrops) {
  sim::Simulator sim;
  CaptureNode dst;
  LinkParams params;
  params.rate_bps = 1e9;
  params.delay = SimTime::zero();
  params.queue_capacity = 2;
  Link link{sim, params};
  link.connect_to(&dst, 0);

  for (int i = 0; i < 5; ++i) {
    link.transmit(frame_of_size(125));
  }
  sim.run();
  // One in flight + 2 queued; the other 2 dropped.
  EXPECT_EQ(dst.received.size(), 3U);
  EXPECT_EQ(link.stats().dropped_frames, 2U);
}

TEST(Link, UnconnectedDrops) {
  sim::Simulator sim;
  Link link{sim, LinkParams{}};
  link.transmit(frame_of_size(100));
  sim.run();
  EXPECT_EQ(link.stats().dropped_frames, 1U);
  EXPECT_EQ(link.stats().tx_frames, 0U);
}

TEST(Link, DownLinkDropsNewFrames) {
  sim::Simulator sim;
  CaptureNode dst;
  Link link{sim, LinkParams{}};
  link.connect_to(&dst, 0);
  link.set_up(false);
  link.transmit(frame_of_size(100));
  sim.run();
  EXPECT_TRUE(dst.received.empty());
  EXPECT_EQ(link.stats().dropped_frames, 1U);
}

TEST(Link, GoingDownLosesInFlightFrames) {
  sim::Simulator sim;
  CaptureNode dst;
  LinkParams params;
  params.delay = 1_ms;
  Link link{sim, params};
  link.connect_to(&dst, 0);
  link.transmit(frame_of_size(100));
  sim.schedule_at(10_us, [&] { link.set_up(false); });
  sim.run();
  EXPECT_TRUE(dst.received.empty());
}

TEST(Link, EachFrameInFlightHoldsOneDeliveryEvent) {
  sim::Simulator sim;
  CaptureNode dst;
  LinkParams params;
  params.rate_bps = 1e9;
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);

  for (int i = 0; i < 5; ++i) {
    link.transmit(frame_of_size(125));
  }
  // Each handed-over frame is a pending event of the link's stream from
  // hand-off on.
  EXPECT_EQ(link.in_flight(), 5U);
  EXPECT_EQ(sim.pending_events(), 5U);
  sim.run();
  EXPECT_EQ(dst.received.size(), 5U);
  EXPECT_EQ(link.in_flight(), 0U);
  EXPECT_EQ(sim.pending_events(), 0U);
}

TEST(Link, DestroyingALinkCancelsItsDeliveries) {
  sim::Simulator sim;
  CaptureNode dst;
  std::size_t fired = 0;
  sim.schedule_at(1_ms, [&] { ++fired; });  // an unrelated event survives
  const std::size_t before = sim.pending_events();
  {
    Link link{sim, LinkParams{}};
    link.connect_to(&dst, 0);
    for (int i = 0; i < 3; ++i) {
      link.transmit(frame_of_size(125));
    }
    EXPECT_EQ(sim.pending_events(), before + 3);
  }
  // A delivery left behind would fire into the freed link.
  ASSERT_EQ(sim.pending_events(), before);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1U);
  EXPECT_EQ(fired, 1U);
  EXPECT_TRUE(dst.received.empty());
}

TEST(Link, BackToBackFramesDeliverOneEventEach) {
  sim::Simulator sim;
  ArrivalClock dst{sim};
  LinkParams params;
  params.rate_bps = 1e9;  // 125 bytes = 1 us serialization
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);

  for (int i = 0; i < 3; ++i) {
    link.transmit(frame_of_size(125));
  }
  sim.run();
  // One delivery event per frame, each at its own serialization-spaced
  // instant.
  EXPECT_EQ(dst.arrivals, (std::vector<SimTime>{1_us, 2_us, 3_us}));
  EXPECT_EQ(sim.executed_events(), 3U);
}

TEST(Link, DownClearsInFlightAndCancelsDelivery) {
  sim::Simulator sim;
  CaptureNode dst;
  LinkParams params;
  params.rate_bps = 1e9;
  params.delay = 1_ms;
  Link link{sim, params};
  link.connect_to(&dst, 0);

  link.transmit(frame_of_size(125));
  link.transmit(frame_of_size(125));
  link.transmit(frame_of_size(125));
  link.set_up(false);
  EXPECT_EQ(link.in_flight(), 0U);
  EXPECT_EQ(sim.pending_events(), 0U);
  EXPECT_EQ(link.stats().flushed_frames, 3U);
  sim.run();
  EXPECT_TRUE(dst.received.empty());
}

// Regression: frames in flight when the link went down used to leave
// their delivery events behind; firing into the revived link, each one
// decremented the drop-tail occupancy counter it no longer owned, so the
// counter underflowed and the revived link spuriously dropped (or
// over-admitted) traffic. Going down must forget in-flight frames
// entirely.
TEST(Link, DownUpCycleKeepsDropTailOccupancyExact) {
  sim::Simulator sim;
  CaptureNode dst;
  LinkParams params;
  params.rate_bps = 1e9;  // 125 bytes = 1 us
  params.delay = SimTime::zero();
  params.queue_capacity = 2;
  Link link{sim, params};
  link.connect_to(&dst, 0);

  // One frame serializing + two queued, then the cable is pulled while
  // all three are still in flight.
  link.transmit(frame_of_size(125));
  link.transmit(frame_of_size(125));
  link.transmit(frame_of_size(125));
  sim.schedule_at(500_ns, [&] {
    link.set_up(false);
    link.set_up(true);
    // The revived link must accept a fresh burst up to its full
    // capacity: one serializing + two queued, nothing dropped.
    link.transmit(frame_of_size(125));
    link.transmit(frame_of_size(125));
    link.transmit(frame_of_size(125));
  });
  sim.run();
  EXPECT_EQ(dst.received.size(), 3U);  // only the post-revival burst
  EXPECT_EQ(link.stats().flushed_frames, 3U);
  EXPECT_EQ(link.stats().dropped_frames, 0U);

  // And the occupancy keeps working after the cycle: a burst one past
  // capacity sees exactly one drop-tail loss.
  const std::uint64_t before = link.stats().dropped_frames;
  for (int i = 0; i < 4; ++i) {
    link.transmit(frame_of_size(125));
  }
  sim.run();
  EXPECT_EQ(link.stats().dropped_frames, before + 1);
  EXPECT_EQ(dst.received.size(), 6U);
}

TEST(Link, RecoversAfterDown) {
  sim::Simulator sim;
  CaptureNode dst;
  Link link{sim, LinkParams{}};
  link.connect_to(&dst, 0);
  link.set_up(false);
  link.set_up(true);
  link.transmit(frame_of_size(100));
  sim.run();
  EXPECT_EQ(dst.received.size(), 1U);
}

TEST(Link, DoubleConnectThrows) {
  sim::Simulator sim;
  CaptureNode dst;
  Link link{sim, LinkParams{}};
  link.connect_to(&dst, 0);
  EXPECT_THROW((void)link.connect_to(&dst, 1), CheckFailure);
}

TEST(Link, ZeroRateRejected) {
  sim::Simulator sim;
  LinkParams params;
  params.rate_bps = 0.0;
  EXPECT_THROW((void)Link(sim, params), CheckFailure);
}

// -- hand-off with a ready time ----------------------------------------------

/// Records each arrival's instant and the frame's first byte (its tag).
class TaggedArrivals : public Node {
 public:
  explicit TaggedArrivals(const sim::Simulator& sim)
      : Node("tagged"), sim_(sim) {}
  void handle_frame(std::size_t /*port*/, wire::FrameHandle frame) override {
    seen.emplace_back(sim_.now(), std::to_integer<int>(frame.to_frame()[0]));
  }

  std::vector<std::pair<SimTime, int>> seen;

 private:
  const sim::Simulator& sim_;
};

wire::Frame tagged_frame(std::size_t n, int tag) {
  return wire::Frame(n, static_cast<std::byte>(tag));
}

TEST(LinkHandOff, MatchesATransmitEventAtTheReadyTime) {
  // Randomized hand-offs on three links: transmit_at(r, f) made at the
  // decision instant must deliver every frame at the same instant and in
  // the same per-link order as an event at r that calls transmit(f).
  struct Op {
    SimTime at;
    std::size_t link;
    SimTime ready;
    std::size_t size;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed};
    std::vector<Op> ops;
    SimTime at = SimTime::zero();
    std::array<SimTime, 3> last_ready{};
    for (int i = 0; i < 200; ++i) {
      at = at + SimTime::nanoseconds(
                    static_cast<std::int64_t>(rng.next_below(300)));
      const auto l = static_cast<std::size_t>(rng.next_below(3));
      const SimTime ready = std::max(
          at + SimTime::nanoseconds(
                   static_cast<std::int64_t>(rng.next_below(2000))),
          last_ready[l]);
      last_ready[l] = ready;
      ops.push_back(Op{at, l, ready,
                       64 + static_cast<std::size_t>(rng.next_below(1400))});
    }

    LinkParams params;
    params.rate_bps = 10e9;             // 1400 B = 1.12 us: queues build
    params.queue_capacity = 1U << 20;   // never fills
    const auto run = [&](bool hand_off) {
      sim::Simulator sim;
      std::vector<std::unique_ptr<TaggedArrivals>> dsts;
      std::vector<std::unique_ptr<Link>> links;
      for (std::size_t l = 0; l < 3; ++l) {
        dsts.push_back(std::make_unique<TaggedArrivals>(sim));
        links.push_back(std::make_unique<Link>(sim, params));
        links.back()->connect_to(dsts.back().get(), 0);
      }
      for (std::size_t i = 0; i < ops.size(); ++i) {
        sim.schedule_at(ops[i].at, [&, i, hand_off] {
          const Op& op = ops[i];
          wire::Frame f = tagged_frame(op.size, static_cast<int>(i));
          if (hand_off) {
            links[op.link]->transmit_at(op.ready, std::move(f));
          } else {
            sim.schedule_at(op.ready, [&, i] {
              links[ops[i].link]->transmit(
                  tagged_frame(ops[i].size, static_cast<int>(i)));
            });
          }
        });
      }
      sim.run();
      std::vector<std::vector<std::pair<SimTime, int>>> seen;
      for (const auto& dst : dsts) {
        seen.push_back(dst->seen);
      }
      return seen;
    };
    const auto handed = run(true);
    const auto timed = run(false);
    std::size_t delivered = 0;
    for (std::size_t l = 0; l < 3; ++l) {
      EXPECT_EQ(handed[l], timed[l]) << "seed " << seed << " link " << l;
      delivered += handed[l].size();
    }
    EXPECT_EQ(delivered, ops.size());
  }
}

TEST(LinkHandOff, RejectsAReadyTimeInThePastOrOutOfOrder) {
  sim::Simulator sim;
  CaptureNode dst;
  Link link{sim, LinkParams{}};
  link.connect_to(&dst, 0);
  sim.schedule_at(1_us, [&] {
    EXPECT_THROW(link.transmit_at(500_ns, frame_of_size(100)), CheckFailure);
    link.transmit_at(3_us, frame_of_size(100));
    EXPECT_THROW(link.transmit_at(2_us, frame_of_size(100)), CheckFailure);
    // transmit() is a hand-off ready now, which is before 3 us.
    EXPECT_THROW(link.transmit(frame_of_size(100)), CheckFailure);
    link.transmit_at(3_us, frame_of_size(100));  // equal is in order
  });
  sim.run();
  EXPECT_EQ(dst.received.size(), 2U);
}

TEST(LinkHandOff, DropTailCountsTheOccupancyAtReady) {
  sim::Simulator sim;
  ArrivalClock dst{sim};
  LinkParams params;
  params.rate_bps = 1e9;  // 125 bytes = 1 us
  params.delay = SimTime::zero();
  params.queue_capacity = 2;
  Link link{sim, params};
  link.connect_to(&dst, 0);

  // One frame on the wire [0, 1 us), two waiting: the queue is full.
  for (int i = 0; i < 3; ++i) {
    link.transmit(frame_of_size(125));
  }
  // At 1.5 us the second frame still holds its slot: dropped.
  link.transmit_at(1500_ns, frame_of_size(125));
  EXPECT_EQ(link.stats().dropped_frames, 1U);
  // By 2 us the second frame has been delivered and its slot is free.
  link.transmit_at(2_us, frame_of_size(125));
  EXPECT_EQ(link.stats().dropped_frames, 1U);
  // A frame that is not ready yet holds no slot now.
  EXPECT_EQ(link.queued(), 2U);
  EXPECT_EQ(link.in_flight(), 4U);
  sim.run();
  EXPECT_EQ(dst.arrivals,
            (std::vector<SimTime>{1_us, 2_us, 3_us, 4_us}));
  EXPECT_EQ(link.queued(), 0U);
}

TEST(LinkHandOff, LinkDownBeforeReadyLosesTheFrame) {
  sim::Simulator sim;
  CaptureNode dst;
  Link link{sim, LinkParams{}};
  link.connect_to(&dst, 0);
  link.transmit_at(10_us, frame_of_size(100));
  sim.schedule_at(5_us, [&] { link.set_up(false); });
  sim.schedule_at(6_us, [&] { link.set_up(true); });  // up again by ready
  sim.run();
  EXPECT_TRUE(dst.received.empty());
  EXPECT_EQ(link.stats().flushed_frames, 1U);
  EXPECT_EQ(link.stats().dropped_frames, 0U);
}

TEST(LinkHandOff, RetractRestoresTheLinkAsIfNeverHandedOver) {
  sim::Simulator sim;
  TaggedArrivals dst{sim};
  LinkParams params;
  params.rate_bps = 1e9;  // 125 bytes = 1 us
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);

  link.transmit(tagged_frame(125, 1));            // on the wire [0, 1 us)
  link.transmit_at(500_ns, tagged_frame(125, 2));  // queued behind it
  link.transmit_at(500_ns, tagged_frame(125, 3));
  EXPECT_EQ(link.stats().tx_frames, 3U);
  sim.schedule_at(200_ns, [&] {
    // Frames 2 and 3 are still inside the sender: take them back, and
    // their delivery events with them.
    const std::size_t pending = sim.pending_events();
    EXPECT_EQ(pending, 3U);
    EXPECT_EQ(link.retract_not_ready(), 2U);
    EXPECT_EQ(sim.pending_events(), pending - 2);
    EXPECT_EQ(link.in_flight(), 1U);
    EXPECT_EQ(link.queued(), 0U);
    // busy_until is back to the end of frame 1, so this one starts at
    // 1 us, not behind the retracted pair.
    link.transmit_at(600_ns, tagged_frame(125, 4));
  });
  sim.run();
  EXPECT_EQ(dst.seen, (std::vector<std::pair<SimTime, int>>{{1_us, 1},
                                                             {2_us, 4}}));
  EXPECT_EQ(link.stats().tx_frames, 2U);
  EXPECT_EQ(link.stats().tx_bytes, 250U);
}

// -- the link's event stream -------------------------------------------------
//
// A link's FIFO is an event stream (sim/stream.hpp): the engine holds only
// its front, and a retraction, a link going down or a destroyed link
// re-arms or disarms the stream instead of cancelling an event per frame.

TEST(LinkStream, APartialRetractKeepsTheHeadArmed) {
  sim::Simulator sim;
  TaggedArrivals dst{sim};
  LinkParams params;
  params.rate_bps = 1e9;  // 125 bytes = 1 us
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);

  link.transmit(tagged_frame(125, 1));            // delivered at 1 us
  link.transmit_at(500_ns, tagged_frame(125, 2));  // not ready at 200 ns
  link.transmit_at(700_ns, tagged_frame(125, 3));
  sim.schedule_at(200_ns, [&] {
    EXPECT_EQ(link.retract_not_ready(), 2U);
    EXPECT_EQ(sim.pending_events(), 1U);  // the kept front, still armed
  });
  sim.run();
  EXPECT_EQ(dst.seen, (std::vector<std::pair<SimTime, int>>{{1_us, 1}}));
  EXPECT_EQ(sim.executed_events(), 2U);
  EXPECT_EQ(sim.pending_events(), 0U);
}

TEST(LinkStream, AFullRetractDisarmsTheLinkAndAHandOffRearmsIt) {
  sim::Simulator sim;
  TaggedArrivals dst{sim};
  LinkParams params;
  params.rate_bps = 1e9;
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);

  link.transmit_at(500_ns, tagged_frame(125, 1));
  link.transmit_at(500_ns, tagged_frame(125, 2));
  sim.schedule_at(100_ns, [&] {
    EXPECT_EQ(link.retract_not_ready(), 2U);
    EXPECT_EQ(sim.pending_events(), 0U);
  });
  sim.run();
  EXPECT_TRUE(dst.seen.empty());
  EXPECT_EQ(sim.executed_events(), 1U);  // the retraction alone

  link.transmit_at(600_ns, tagged_frame(125, 3));
  EXPECT_EQ(sim.pending_events(), 1U);
  sim.run();
  EXPECT_EQ(dst.seen,
            (std::vector<std::pair<SimTime, int>>{{1600_ns, 3}}));
  EXPECT_EQ(sim.executed_events(), 2U);
}

TEST(LinkStream, GoingDownDisarmsTheLinkAndComingBackRearmsIt) {
  sim::Simulator sim;
  TaggedArrivals dst{sim};
  LinkParams params;
  params.rate_bps = 1e9;
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);
  std::size_t other = 0;
  sim.schedule_at(5_us, [&] { ++other; });

  for (int i = 1; i <= 3; ++i) {
    link.transmit(tagged_frame(125, i));
  }
  EXPECT_EQ(sim.pending_events(), 4U);
  link.set_up(false);
  EXPECT_EQ(sim.pending_events(), 1U);  // the unrelated event
  link.set_up(true);
  link.transmit(tagged_frame(125, 4));
  EXPECT_EQ(sim.pending_events(), 2U);
  sim.run();
  EXPECT_EQ(dst.seen, (std::vector<std::pair<SimTime, int>>{{1_us, 4}}));
  EXPECT_EQ(other, 1U);
  EXPECT_EQ(sim.executed_events(), 2U);
}

TEST(LinkStream, ALinkDestroyedWithFramesInFlightLeavesTheEngineConsistent) {
  // Three links whose fronts interleave in time; the middle one is
  // destroyed while armed. The other two deliver every frame, in time
  // order across both, and the engine's count stays exact.
  sim::Simulator sim;
  TaggedArrivals dst{sim};
  LinkParams params;
  params.rate_bps = 1e9;  // 125 bytes = 1 us
  params.delay = SimTime::zero();
  Link first{sim, params};
  Link last{sim, params};
  first.connect_to(&dst, 0);
  last.connect_to(&dst, 2);
  {
    Link doomed{sim, params};
    doomed.connect_to(&dst, 1);
    first.transmit(tagged_frame(125, 1));             // 1 us, 2 us
    first.transmit(tagged_frame(125, 2));
    doomed.transmit_at(300_ns, tagged_frame(125, 9));  // 1.3 us, 2.3 us
    doomed.transmit_at(300_ns, tagged_frame(125, 9));
    last.transmit_at(600_ns, tagged_frame(125, 3));   // 1.6 us, 2.6 us
    last.transmit_at(600_ns, tagged_frame(125, 4));
    EXPECT_EQ(sim.pending_events(), 6U);
  }
  EXPECT_EQ(sim.pending_events(), 4U);
  sim.run();
  EXPECT_EQ(dst.seen, (std::vector<std::pair<SimTime, int>>{
                          {1_us, 1}, {1600_ns, 3}, {2_us, 2}, {2600_ns, 4}}));
  EXPECT_EQ(sim.executed_events(), 4U);
  EXPECT_EQ(sim.pending_events(), 0U);
}

// -- receive side: one event per frame, at the receiver's pickup -------------

/// A receiver whose thread spends `cost` on every frame. Records each
/// delivery's instant and the frame's 16-bit tag (its first two bytes).
class CostlyReceiver : public Node {
 public:
  CostlyReceiver(const sim::Simulator& sim, SimTime cost)
      : Node("receiver"), sim_(sim), cost_(cost) {}
  [[nodiscard]] SimTime receive_cost() const override { return cost_; }
  void handle_frame(std::size_t /*port*/, wire::FrameHandle frame) override {
    const std::span<const std::byte> b = frame.bytes();
    seen.emplace_back(sim_.now(), std::to_integer<int>(b[0]) << 8 |
                                      std::to_integer<int>(b[1]));
  }

  std::vector<std::pair<SimTime, int>> seen;

 private:
  const sim::Simulator& sim_;
  SimTime cost_;
};

wire::Frame tag16_frame(std::size_t n, int tag) {
  wire::Frame f(n, std::byte{0});
  f[0] = static_cast<std::byte>(tag >> 8);
  f[1] = static_cast<std::byte>(tag & 0xFF);
  return f;
}

/// The receive path as its definition: a wire stage (drop-tail queue,
/// serialization, delay), then a serial thread that takes `cost` per
/// frame in arrival order. Its state is a function of the hand-offs
/// accepted since the link last came up, so a retracted hand-off is
/// simply forgotten, and a downed link loses every frame not picked up.
class ReferenceReceivePath {
 public:
  ReferenceReceivePath(LinkParams params, SimTime cost)
      : params_(params), cost_(cost) {}

  /// Brings the model to instant `t`, just before an event scheduled
  /// ahead of every hand-off runs there: frames picked up before `t` are
  /// delivered.
  void advance(SimTime t) {
    while (next_ < accepted_.size() && accepted_[next_].pickup < t) {
      delivered.emplace_back(accepted_[next_].pickup, accepted_[next_].tag);
      ++next_;
    }
  }
  void hand_off(SimTime ready, std::size_t size, int tag) {
    if (!up_) {
      ++dropped;
      return;
    }
    const SimTime busy = accepted_.empty() ? base_ : accepted_.back().sent;
    std::size_t occupancy = 0;
    for (const Entry& e : accepted_) {
      if (e.waited && e.arrive > ready) {
        ++occupancy;
      }
    }
    if (busy > ready && occupancy >= params_.queue_capacity) {
      ++dropped;
      return;
    }
    Entry e;
    e.ready = ready;
    e.waited = busy > ready;
    e.sent = std::max(busy, ready) +
             SimTime::seconds(static_cast<double>(size) * 8.0 /
                              params_.rate_bps);
    e.arrive = e.sent + params_.delay;
    const SimTime thread_free =
        accepted_.empty() ? base_ : accepted_.back().pickup;
    e.pickup = std::max(e.arrive, thread_free) + cost_;
    e.tag = tag;
    accepted_.push_back(e);
  }
  std::size_t retract(SimTime now) {
    std::size_t n = 0;
    while (accepted_.size() > next_ && accepted_.back().ready >= now) {
      accepted_.pop_back();
      ++n;
    }
    return n;
  }
  void set_up(bool up, SimTime now) {
    if (up_ && !up) {
      flushed += accepted_.size() - next_;
      accepted_.clear();
      next_ = 0;
      base_ = now;
    }
    up_ = up;
  }
  [[nodiscard]] std::size_t in_flight() const {
    return accepted_.size() - next_;
  }
  [[nodiscard]] std::size_t queued(SimTime now) const {
    std::size_t n = 0;
    for (std::size_t i = next_; i < accepted_.size(); ++i) {
      const Entry& e = accepted_[i];
      if (e.waited && e.ready <= now && e.arrive > now) {
        ++n;
      }
    }
    return n;
  }

  std::vector<std::pair<SimTime, int>> delivered;
  std::uint64_t dropped = 0;
  std::uint64_t flushed = 0;

 private:
  struct Entry {
    SimTime ready;
    SimTime sent;    // end of serialization
    SimTime arrive;  // wire arrival: the drop-tail slot is free
    SimTime pickup;  // the thread is done with the frame: delivery
    bool waited = false;
    int tag = 0;
  };

  LinkParams params_;
  SimTime cost_;
  std::vector<Entry> accepted_;  // since the last down; delivered included
  std::size_t next_ = 0;         // first entry not yet delivered
  SimTime base_ = SimTime::zero();
  bool up_ = true;
};

SimTime random_ns(Rng& rng, std::uint64_t below) {
  return SimTime::nanoseconds(
      static_cast<std::int64_t>(rng.next_below(below)));
}

TEST(LinkReceiver, DeliversEachFrameAtItsPickupLikeTheReferenceModel) {
  // Random sizes, ready times, rates, delays, costs and capacities, with
  // retractions and down/up cycles: every frame is delivered, in FIFO
  // order, at max(wire arrival, previous pickup) + cost, and drop-tail
  // slots free at wire arrival, exactly as in the reference model.
  enum class Kind { kHandOff, kRetract, kDown, kUp };
  struct Op {
    SimTime at;
    Kind kind;
    SimTime ready;
    std::size_t size;
  };
  constexpr std::array<double, 3> kRates{1e9, 10e9, 100e9};
  std::size_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t flushed = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng{seed};
    LinkParams params;
    params.rate_bps = kRates[rng.next_below(kRates.size())];
    params.delay = random_ns(rng, 1000);
    params.queue_capacity = 1 + rng.next_below(6);
    const SimTime cost = random_ns(rng, 2000);
    // Hand-offs come about one mean frame time apart, so queues build and
    // drain.
    const auto gap = static_cast<std::uint64_t>(2 * 780 * 8e9 /
                                                params.rate_bps);

    std::vector<Op> ops;
    SimTime at = SimTime::zero();
    SimTime last_ready = SimTime::zero();
    for (int i = 0; i < 300; ++i) {
      at = at + random_ns(rng, gap);
      const std::uint64_t pick = rng.next_below(100);
      if (pick < 88) {
        last_ready = std::max(at + random_ns(rng, gap), last_ready);
        ops.push_back(Op{at, Kind::kHandOff, last_ready,
                         64 + static_cast<std::size_t>(rng.next_below(1437))});
      } else {
        const Kind kind = pick < 93   ? Kind::kRetract
                          : pick < 95 ? Kind::kDown
                                      : Kind::kUp;
        ops.push_back(Op{at, kind, SimTime::zero(), 0});
      }
    }

    sim::Simulator sim;
    CostlyReceiver dst{sim, cost};
    Link link{sim, params};
    link.connect_to(&dst, 0);
    ReferenceReceivePath ref{params, cost};
    // Every op is scheduled before any hand-off, so at a shared instant
    // it runs ahead of the link's delivery events (ReferenceReceivePath
    // ::advance).
    for (std::size_t i = 0; i < ops.size(); ++i) {
      sim.schedule_at(ops[i].at, [&, i] {
        const Op& op = ops[i];
        ref.advance(op.at);
        EXPECT_EQ(link.in_flight(), ref.in_flight()) << "seed " << seed;
        EXPECT_EQ(link.queued(), ref.queued(op.at)) << "seed " << seed;
        switch (op.kind) {
          case Kind::kHandOff:
            link.transmit_at(op.ready,
                             tag16_frame(op.size, static_cast<int>(i)));
            ref.hand_off(op.ready, op.size, static_cast<int>(i));
            break;
          case Kind::kRetract:
            EXPECT_EQ(link.retract_not_ready(), ref.retract(op.at))
                << "seed " << seed;
            break;
          case Kind::kDown:
          case Kind::kUp:
            link.set_up(op.kind == Kind::kUp);
            ref.set_up(op.kind == Kind::kUp, op.at);
            break;
        }
      });
    }
    sim.run();
    ref.advance(SimTime::max());
    EXPECT_EQ(dst.seen, ref.delivered) << "seed " << seed;
    EXPECT_EQ(link.stats().dropped_frames, ref.dropped) << "seed " << seed;
    EXPECT_EQ(link.stats().flushed_frames, ref.flushed) << "seed " << seed;
    EXPECT_EQ(link.in_flight(), 0U);
    delivered += dst.seen.size();
    dropped += ref.dropped;
    flushed += ref.flushed;
  }
  // The mix exercised every path.
  EXPECT_GT(delivered, 2000U);
  EXPECT_GT(dropped, 500U);
  EXPECT_GT(flushed, 100U);
}

TEST(LinkReceiver, DuplicatesAndReordersKeepThePickupSchedule) {
  // With duplication, reordering and impairment drops, the slots still
  // follow the reference: each copy that reached the receiver holds a
  // slot in hand-off order (a duplicate right behind its original), and
  // a reorder swaps frames between slots but leaves every slot's pickup
  // where it was.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed};
    LinkParams params;
    params.rate_bps = 10e9;
    params.delay = random_ns(rng, 1000);
    params.queue_capacity = 1U << 20;  // never fills
    const SimTime cost = random_ns(rng, 1500);

    struct HandOff {
      SimTime at;
      SimTime ready;
      std::size_t size;
    };
    std::vector<HandOff> handoffs;
    SimTime at = SimTime::zero();
    SimTime last_ready = SimTime::zero();
    for (int i = 0; i < 300; ++i) {
      at = at + random_ns(rng, 300);
      last_ready = std::max(at + random_ns(rng, 1500), last_ready);
      handoffs.push_back(
          HandOff{at, last_ready,
                  64 + static_cast<std::size_t>(rng.next_below(1437))});
    }

    sim::Simulator sim;
    CostlyReceiver dst{sim, cost};
    Link link{sim, params};
    link.connect_to(&dst, 0);
    LinkImpairments cfg;
    cfg.drop_rate = 0.05;
    cfg.duplicate_rate = 0.1;
    cfg.reorder_rate = 0.3;
    link.configure_impairments(cfg, seed);
    for (std::size_t i = 0; i < handoffs.size(); ++i) {
      sim.schedule_at(handoffs[i].at, [&, i] {
        link.transmit_at(handoffs[i].ready,
                         tag16_frame(handoffs[i].size, static_cast<int>(i)));
      });
    }
    sim.run();

    std::vector<std::size_t> copies(handoffs.size(), 0);
    for (const auto& [t, tag] : dst.seen) {
      ++copies[static_cast<std::size_t>(tag)];
    }
    ReferenceReceivePath ref{params, cost};
    for (std::size_t i = 0; i < handoffs.size(); ++i) {
      for (std::size_t c = 0; c < copies[i]; ++c) {
        ref.hand_off(handoffs[i].ready, handoffs[i].size,
                     static_cast<int>(i));
      }
    }
    ref.advance(SimTime::max());
    ASSERT_EQ(dst.seen.size(), ref.delivered.size()) << "seed " << seed;
    std::size_t moved = 0;
    for (std::size_t k = 0; k < dst.seen.size(); ++k) {
      EXPECT_EQ(dst.seen[k].first, ref.delivered[k].first)
          << "seed " << seed << " slot " << k;
      const auto tag = static_cast<std::size_t>(dst.seen[k].second);
      EXPECT_GE(dst.seen[k].first, handoffs[tag].ready + cost);
      if (dst.seen[k].second != ref.delivered[k].second) {
        ++moved;
      }
    }
    const LinkStats& s = link.stats();
    EXPECT_EQ(dst.seen.size(),
              handoffs.size() + s.duplicated_frames - s.impaired_drops);
    EXPECT_GT(s.duplicated_frames, 0U);
    EXPECT_GT(s.reordered_frames, 0U);
    EXPECT_GT(moved, 0U);
  }
}

TEST(LinkReceiver, AReceiverWithACostTakesOneIngressLink) {
  sim::Simulator sim;
  CostlyReceiver costly{sim, 300_ns};
  Link first{sim, LinkParams{}};
  Link second{sim, LinkParams{}};
  first.connect_to(&costly, 0);
  EXPECT_THROW(second.connect_to(&costly, 1), CheckFailure);
  // A receiver without a cost (a switch) takes any number.
  CostlyReceiver free_receiver{sim, SimTime::zero()};
  Link third{sim, LinkParams{}};
  Link fourth{sim, LinkParams{}};
  third.connect_to(&free_receiver, 0);
  fourth.connect_to(&free_receiver, 1);
}

TEST(LinkReceiver, ADownedLinkLosesFramesAwaitingPickup) {
  sim::Simulator sim;
  CostlyReceiver dst{sim, 1_us};
  LinkParams params;
  params.rate_bps = 1e9;  // 125 bytes = 1 us
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);
  link.transmit(tag16_frame(125, 1));  // arrives at 1 us, picked up at 2 us
  sim.schedule_at(1500_ns, [&] {
    EXPECT_EQ(link.in_flight(), 1U);
    EXPECT_EQ(link.queued(), 0U);  // arrived: its slot is free
    link.set_up(false);
    link.set_up(true);
    link.transmit(tag16_frame(125, 2));  // the thread is idle again
  });
  sim.run();
  EXPECT_EQ(dst.seen,
            (std::vector<std::pair<SimTime, int>>{{3500_ns, 2}}));
  EXPECT_EQ(link.stats().flushed_frames, 1U);
}

// -- impairment model --------------------------------------------------------

LinkImpairments only(double LinkImpairments::* field, double rate) {
  LinkImpairments cfg;
  cfg.*field = rate;
  return cfg;
}

TEST(LinkFaults, CleanLinkHasNoState) {
  sim::Simulator sim;
  Link link{sim, LinkParams{}};
  EXPECT_EQ(link.impairments(), nullptr);
  link.configure_impairments(only(&LinkImpairments::drop_rate, 0.5), 1);
  ASSERT_NE(link.impairments(), nullptr);
  // An all-zero config removes the state entirely (back to the fast path).
  link.configure_impairments(LinkImpairments{}, 1);
  EXPECT_EQ(link.impairments(), nullptr);
}

TEST(LinkFaults, DropRateOneDropsEverything) {
  sim::Simulator sim;
  CaptureNode dst;
  Link link{sim, LinkParams{}};
  link.connect_to(&dst, 0);
  link.configure_impairments(only(&LinkImpairments::drop_rate, 1.0), 7);
  for (int i = 0; i < 10; ++i) {
    link.transmit(frame_of_size(100));
  }
  sim.run();
  EXPECT_TRUE(dst.received.empty());
  EXPECT_EQ(link.stats().impaired_drops, 10U);
  EXPECT_EQ(link.stats().dropped_frames, 0U);  // counted apart from drop-tail
  EXPECT_EQ(link.queued(), 0U);
}

TEST(LinkFaults, CorruptionFlipsOneBitOnAPrivateCopy) {
  sim::Simulator sim;
  CaptureNode dst;
  Link link{sim, LinkParams{}};
  link.connect_to(&dst, 0);
  link.configure_impairments(only(&LinkImpairments::corrupt_rate, 1.0), 7);

  const wire::Frame original(100, std::byte{0x42});
  // Keep a second handle to the same shared buffer: corruption must not
  // mutate it (multicast shares one buffer across links).
  const wire::FrameHandle shared = wire::FrameHandle::copy_of(original);
  link.transmit(shared);
  sim.run();

  ASSERT_EQ(dst.received.size(), 1U);
  EXPECT_EQ(link.stats().corrupted_frames, 1U);
  const wire::Frame& delivered = dst.received[0].frame;
  ASSERT_EQ(delivered.size(), original.size());
  std::size_t diff_bits = 0;
  std::size_t diff_at = 0;
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    const auto x = static_cast<unsigned>(delivered[i] ^ original[i]);
    if (x != 0) {
      diff_at = i;
      diff_bits += static_cast<std::size_t>(__builtin_popcount(x));
    }
  }
  EXPECT_EQ(diff_bits, 1U);
  EXPECT_GE(diff_at, 14U);  // Ethernet header region is spared
  // The shared handle still reads the pristine bytes.
  EXPECT_TRUE(std::equal(original.begin(), original.end(),
                         shared.bytes().begin()));
}

TEST(LinkFaults, CorruptedCopyComesFromTheFramesOwnPool) {
  // A copy taken from any pool but the frame's own would land in the
  // process pool.
  wire::FramePool pool;
  sim::Simulator sim;
  CaptureNode dst;
  Link link{sim, LinkParams{}};
  link.connect_to(&dst, 0);
  link.configure_impairments(only(&LinkImpairments::corrupt_rate, 1.0), 7);

  const std::uint64_t process_before =
      wire::FramePool::instance().stats().acquired;
  constexpr std::uint64_t kFrames = 5;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    wire::FrameHandle frame = wire::FrameHandle::allocate(pool, 100);
    std::fill_n(frame.writable(), 100, std::byte{0x42});
    link.transmit(std::move(frame));
  }
  sim.run();

  ASSERT_EQ(dst.received.size(), kFrames);
  EXPECT_EQ(link.stats().corrupted_frames, kFrames);
  EXPECT_EQ(pool.stats().acquired, 2 * kFrames);  // each frame + its copy
  EXPECT_EQ(pool.stats().live, 0U);
  EXPECT_EQ(wire::FramePool::instance().stats().acquired, process_before);
}

TEST(LinkFaults, DuplicationDeliversTwoCopies) {
  sim::Simulator sim;
  CaptureNode dst;
  Link link{sim, LinkParams{}};
  link.connect_to(&dst, 0);
  link.configure_impairments(only(&LinkImpairments::duplicate_rate, 1.0), 7);
  link.transmit(frame_of_size(100));
  sim.run();
  EXPECT_EQ(dst.received.size(), 2U);
  EXPECT_EQ(link.stats().duplicated_frames, 1U);
  EXPECT_EQ(link.stats().tx_frames, 2U);
  EXPECT_EQ(dst.received[0].frame, dst.received[1].frame);
}

TEST(LinkFaults, ReorderSwapsBackToBackFrames) {
  sim::Simulator sim;
  CaptureNode dst;
  LinkParams params;
  params.rate_bps = 1e9;  // slow enough that both frames queue together
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);
  link.configure_impairments(only(&LinkImpairments::reorder_rate, 1.0), 7);

  link.transmit(wire::Frame(125, std::byte{0xAA}));
  link.transmit(wire::Frame(125, std::byte{0xBB}));
  sim.run();
  ASSERT_EQ(dst.received.size(), 2U);
  EXPECT_GE(link.stats().reordered_frames, 1U);
  // The second-submitted frame arrives first: payloads swapped, delivery
  // times (and drop-tail accounting) untouched.
  EXPECT_EQ(dst.received[0].frame[20], std::byte{0xBB});
  EXPECT_EQ(dst.received[1].frame[20], std::byte{0xAA});
}

TEST(LinkFaults, DeterministicPerSeedStream) {
  const auto run_once = [](std::uint64_t seed) {
    sim::Simulator sim;
    CaptureNode dst;
    Link link{sim, LinkParams{}};
    link.connect_to(&dst, 0);
    LinkImpairments cfg;
    cfg.drop_rate = 0.3;
    cfg.corrupt_rate = 0.2;
    cfg.duplicate_rate = 0.1;
    link.configure_impairments(cfg, seed);
    for (int i = 0; i < 200; ++i) {
      link.transmit(frame_of_size(100));
    }
    sim.run();
    return link.stats();
  };
  const LinkStats a = run_once(11);
  const LinkStats b = run_once(11);
  const LinkStats c = run_once(12);
  EXPECT_EQ(a.impaired_drops, b.impaired_drops);
  EXPECT_EQ(a.corrupted_frames, b.corrupted_frames);
  EXPECT_EQ(a.duplicated_frames, b.duplicated_frames);
  EXPECT_EQ(a.tx_frames, b.tx_frames);
  EXPECT_NE(a.impaired_drops, c.impaired_drops);
}

TEST(LinkFaults, ReconfigureKeepsTheRngStream) {
  // Updating rates mid-run must not reseed: two runs that reconfigure at
  // the same point produce identical outcomes regardless of the seed
  // passed to the second configure call.
  const auto run_once = [](std::uint64_t second_seed) {
    sim::Simulator sim;
    CaptureNode dst;
    Link link{sim, LinkParams{}};
    link.connect_to(&dst, 0);
    link.configure_impairments(
        only(&LinkImpairments::drop_rate, 0.5), 21);
    for (int i = 0; i < 50; ++i) {
      link.transmit(frame_of_size(100));
    }
    sim.run();
    link.configure_impairments(
        only(&LinkImpairments::drop_rate, 0.25), second_seed);
    for (int i = 0; i < 50; ++i) {
      link.transmit(frame_of_size(100));
    }
    sim.run();
    return link.stats().impaired_drops;
  };
  EXPECT_EQ(run_once(1), run_once(999));
}

// Satellite regression: impairments composing with a down/up cycle must
// not corrupt drop-tail occupancy or leak pooled frames.
TEST(LinkFaults, ComposeWithDownUpCycle) {
  const std::uint64_t live_before =
      wire::FramePool::instance().stats().live;
  {
    sim::Simulator sim;
    CaptureNode dst;
    LinkParams params;
    params.rate_bps = 1e9;  // 125 bytes = 1 us
    params.delay = SimTime::zero();
    params.queue_capacity = 2;
    Link link{sim, params};
    link.connect_to(&dst, 0);
    LinkImpairments cfg;
    cfg.duplicate_rate = 0.5;
    cfg.corrupt_rate = 0.3;
    cfg.reorder_rate = 0.3;
    link.configure_impairments(cfg, 99);

    // Burst (duplicates contend for the same drop-tail slots), then pull
    // the cable mid-flight, revive, and burst again.
    for (int i = 0; i < 6; ++i) {
      link.transmit(frame_of_size(125));
    }
    sim.schedule_at(500_ns, [&] {
      link.set_up(false);
      EXPECT_EQ(link.in_flight(), 0U);
      EXPECT_EQ(link.queued(), 0U);
      link.set_up(true);
      for (int i = 0; i < 6; ++i) {
        link.transmit(frame_of_size(125));
      }
    });
    sim.run();

    // Occupancy fully drained, and every offered frame is accounted as
    // admitted (tx_frames; flushed frames are the admitted subset lost to
    // the cable pull), impaired-dropped, or drop-tailed.
    EXPECT_EQ(link.queued(), 0U);
    EXPECT_EQ(link.in_flight(), 0U);
    const LinkStats& s = link.stats();
    EXPECT_EQ(12U + s.duplicated_frames,
              s.tx_frames + s.impaired_drops + s.dropped_frames);
    EXPECT_LE(s.flushed_frames, s.tx_frames);
    EXPECT_GT(s.flushed_frames, 0U);

    // And the occupancy still enforces capacity exactly after the cycle.
    const std::uint64_t before = s.dropped_frames;
    link.configure_impairments(LinkImpairments{}, 0);
    for (int i = 0; i < 4; ++i) {
      link.transmit(frame_of_size(125));
    }
    sim.run();
    EXPECT_EQ(link.stats().dropped_frames, before + 1);
  }
  EXPECT_EQ(wire::FramePool::instance().stats().live, live_before);
}

TEST(LinkFaults, ReorderOnlyOvertakesAFrameStillInFlightAtReady) {
  sim::Simulator sim;
  TaggedArrivals dst{sim};
  LinkParams params;
  params.rate_bps = 1e9;  // 125 bytes = 1 us
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);
  link.configure_impairments(only(&LinkImpairments::reorder_rate, 1.0), 7);

  link.transmit(tagged_frame(125, 1));  // delivered at 1 us
  // Frame 1 is delivered by this frame's ready time: nothing to overtake,
  // and no draw.
  link.transmit_at(1_us, tagged_frame(125, 2));
  EXPECT_EQ(link.stats().reordered_frames, 0U);
  // Frame 2 is still in flight at 1.5 us: frame 3 overtakes it, and is
  // still delivered no earlier than it is ready.
  link.transmit_at(1500_ns, tagged_frame(125, 3));
  EXPECT_EQ(link.stats().reordered_frames, 1U);
  sim.run();
  EXPECT_EQ(dst.seen, (std::vector<std::pair<SimTime, int>>{
                          {1_us, 1}, {2_us, 3}, {3_us, 2}}));
}

TEST(LinkFaults, RetractUndoesAReorderSwapWithAFrameOnTheWire) {
  sim::Simulator sim;
  TaggedArrivals dst{sim};
  LinkParams params;
  params.rate_bps = 1e9;  // 125 bytes = 1 us
  params.delay = SimTime::zero();
  Link link{sim, params};
  link.connect_to(&dst, 0);
  link.configure_impairments(only(&LinkImpairments::reorder_rate, 1.0), 7);

  link.transmit(tagged_frame(125, 1));
  link.transmit_at(500_ns, tagged_frame(125, 2));  // swapped ahead of 1
  EXPECT_EQ(link.stats().reordered_frames, 1U);
  sim.schedule_at(100_ns, [&] {
    // Frame 2 never left the sender, so frame 1 is the one delivered.
    EXPECT_EQ(link.retract_not_ready(), 1U);
  });
  sim.run();
  EXPECT_EQ(dst.seen,
            (std::vector<std::pair<SimTime, int>>{{1_us, 1}}));
}

}  // namespace
}  // namespace netclone::phys

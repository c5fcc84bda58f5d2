#include "phys/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
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
  // Each handed-over frame has its delivery event scheduled at hand-off.
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
  // No pool is bound here, so an implicit allocation would land in the
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

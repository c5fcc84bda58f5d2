// Ring: the packet path's FIFO. Order through wrap-around and growth,
// removal from the middle, and that entries holding pooled frames give
// their references back when popped, cleared or destroyed.
#include "common/ring.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"
#include "wire/framebuf.hpp"

namespace netclone {
namespace {

TEST(Ring, KeepsFifoOrderThroughWrapAroundAndGrowth) {
  Ring<int> ring;
  std::deque<int> model;
  Rng rng{0x5151};
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    // Push-heavy phases grow the ring; pop-heavy ones drain it, so the
    // head wraps at every capacity it passes through.
    const std::uint64_t push_percent = (step / 1000) % 2 == 0 ? 70 : 30;
    const bool push = model.empty() || rng.next_below(100) < push_percent;
    if (push) {
      ring.push_back(next);
      model.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(ring.front(), model.front());
      ring.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(ring.back(), model.back());
      const std::size_t i = rng.next_below(model.size());
      ASSERT_EQ(ring[i], model[i]);
    }
  }
}

TEST(Ring, CapacityDoublesAndNeverShrinks) {
  Ring<int> ring;
  EXPECT_EQ(ring.capacity(), 0U);
  for (int i = 0; i < 9; ++i) {
    ring.push_back(i);
  }
  EXPECT_EQ(ring.capacity(), 16U);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 16U);
  // A queue that stays within its capacity never grows again, however
  // many entries pass through it.
  for (int i = 0; i < 100000; ++i) {
    ring.push_back(i);
    if (ring.size() > 12) {
      ring.pop_front();
    }
  }
  EXPECT_EQ(ring.capacity(), 16U);
}

TEST(Ring, PopBackAndEraseFromTheMiddle) {
  Ring<int> ring;
  // Start the contents mid-buffer so erase moves entries across the wrap.
  for (int i = 0; i < 6; ++i) {
    ring.push_back(-1);
    ring.pop_front();
  }
  for (int i = 0; i < 7; ++i) {
    ring.push_back(i);
  }
  ring.erase(2);  // 0 1 3 4 5 6
  ring.erase(0);  // 1 3 4 5 6
  ring.erase(4);  // 1 3 4 5
  ring.pop_back();  // 1 3 4
  ASSERT_EQ(ring.size(), 3U);
  EXPECT_EQ(ring[0], 1);
  EXPECT_EQ(ring[1], 3);
  EXPECT_EQ(ring[2], 4);
}

TEST(Ring, ReleasesTheFramesItsEntriesHold) {
  wire::FramePool pool;
  {
    Ring<wire::FrameHandle> ring;
    for (int i = 0; i < 20; ++i) {  // grows twice, moving live handles
      ring.push_back(wire::FrameHandle::allocate(pool, 64));
    }
    EXPECT_EQ(pool.stats().live, 20U);
    ring.pop_front();
    ring.pop_back();
    ring.erase(5);
    EXPECT_EQ(pool.stats().live, 17U);
    ring.clear();
    EXPECT_EQ(pool.stats().live, 0U);
    for (int i = 0; i < 3; ++i) {
      ring.push_back(wire::FrameHandle::allocate(pool, 64));
    }
    EXPECT_EQ(pool.stats().live, 3U);
  }
  EXPECT_EQ(pool.stats().live, 0U);  // the destructor released the rest
  EXPECT_EQ(pool.stats().acquired, pool.stats().released);
}

}  // namespace
}  // namespace netclone

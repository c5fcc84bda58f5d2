// parallel_for, the one worker pool behind run_sweep and the KV store's
// populate. It runs its items on real threads, so the TSan lane checks it
// for races: every item runs exactly once, a failure surfaces only after
// every item has run, and one CPU in the affinity mask means no threads.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "one_cpu.hpp"

namespace netclone {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                  std::size_t{1000}}) {
    std::vector<std::atomic<int>> runs(count);
    parallel_for(count, [&](std::size_t i) { ++runs[i]; });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << " of " << count;
    }
  }
}

TEST(ParallelFor, ZeroCountRunsNothing) {
  std::atomic<int> runs{0};
  parallel_for(0, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs.load(), 0);
}

// Which exception surfaces must not depend on which worker got there
// first: always the lowest throwing index's, and only once every item
// has run.
TEST(ParallelFor, RunsEveryItemThenRethrowsTheLowestFailingIndex) {
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> runs(kCount);
  try {
    parallel_for(kCount, [&](std::size_t i) {
      ++runs[i];
      if (i == 7 || i == 20 || i == 63) {
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "expected a rethrown item failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, OneCpuRunsEverythingOnTheCaller) {
  const testing::OneCpuScope one_cpu;
  ASSERT_EQ(usable_cpus(), 1U);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(100);
  parallel_for(ran_on.size(),
               [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], caller) << "index " << i;
  }
}

}  // namespace
}  // namespace netclone

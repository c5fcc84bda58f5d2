// Pins the calling thread to one CPU of its affinity mask for a scope,
// so code that sizes its worker pool by usable_cpus() runs serially on
// that thread; the scope's end restores the mask.
#pragma once

#include <sched.h>

#include <gtest/gtest.h>

#include <cstddef>

namespace netclone::testing {

class OneCpuScope {
 public:
  OneCpuScope() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      ADD_FAILURE() << "sched_getaffinity failed";
      return;
    }
    std::size_t cpu = 0;
    while (!CPU_ISSET(cpu, &saved_)) {
      ++cpu;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    EXPECT_TRUE(pinned_) << "sched_setaffinity failed";
  }
  ~OneCpuScope() {
    if (pinned_) {
      EXPECT_EQ(sched_setaffinity(0, sizeof(saved_), &saved_), 0);
    }
  }
  OneCpuScope(const OneCpuScope&) = delete;
  OneCpuScope& operator=(const OneCpuScope&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace netclone::testing

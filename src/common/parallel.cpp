#include "common/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace netclone {

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  // Each item writes only its own error slot; the slots are read after
  // the join.
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  const std::size_t workers = std::min(usable_cpus(), count);
  {
    std::vector<std::jthread> helpers;
    for (std::size_t w = 1; w < workers; ++w) {
      try {
        helpers.emplace_back(work);
      } catch (const std::system_error&) {
        break;  // no more threads to be had; the others cover the items
      }
    }
    work();
  }  // joins the helpers

  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace netclone

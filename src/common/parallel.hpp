// Data-parallel loops over independent items, on a pool of threads sized
// to the CPUs this process may use. Load sweeps run their points through
// it, and the KV store's populate fills its record chunks through it.
//
// Items share nothing mutable unless the caller arranges it, so results
// never depend on how many workers ran: one CPU in the affinity mask
// (`taskset -c 0`) gives the serial loop.
#pragma once

#include <cstddef>
#include <functional>

namespace netclone {

/// CPUs the calling thread may run on: its affinity mask, so `taskset`
/// and container CPU sets are honored.
[[nodiscard]] std::size_t usable_cpus();

/// Runs fn(0) .. fn(count - 1), each exactly once. Workers are the
/// calling thread (worker 0) plus one thread per further usable CPU, at
/// most one per item; fewer run when a thread cannot be started. Workers
/// claim items in index order from a shared counter, so items start in
/// index order but finish in any order, and fn must be safe to run
/// concurrently on different items. Returns once every item has run. If
/// any item threw, the exception of the lowest throwing index is then
/// rethrown.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace netclone

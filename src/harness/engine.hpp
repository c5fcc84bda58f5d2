// The event engine and frame pool every harness (Experiment, MultiRack)
// runs on.
//
// One sim::Simulator backs a run. EngineContext pairs it with the
// experiment's own frame pool: nothing an experiment does allocates from
// the process-wide FramePool::instance(), so experiments on different
// threads (run_sweep's load points) never share a free list. The engine
// is held through a pointer so the event arena stays out of this header
// and everything that includes it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/scheduler.hpp"
#include "wire/framebuf.hpp"

namespace netclone::sim {
class Simulator;
}  // namespace netclone::sim

namespace netclone::harness {

class EngineContext {
 public:
  EngineContext();
  ~EngineContext();

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  /// The engine every node, link and fault event schedules on.
  [[nodiscard]] sim::Scheduler& scheduler();

  /// Runs the engine with the experiment's pool bound to this thread.
  void run_until(SimTime deadline);
  [[nodiscard]] std::uint64_t executed_events() const;
  /// The experiment's own frame pool. Harnesses bind it
  /// (ScopedPoolBinding) while they build; run_until binds it itself.
  [[nodiscard]] wire::FramePool& pool() { return pool_; }
  /// The pool's balance sheet, as the one-element list the auditor and
  /// the benchmark iterate.
  [[nodiscard]] std::vector<wire::FramePool::Stats> frame_pool_stats()
      const {
    return {pool_.stats()};
  }

 private:
  // Declared first so it is destroyed last: every frame the engine's
  // events (and the harness's nodes, destroyed before this context) hold
  // releases into it.
  wire::FramePool pool_;
  std::unique_ptr<sim::Simulator> sim_;
};

}  // namespace netclone::harness

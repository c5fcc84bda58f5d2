#include "harness/engine.hpp"

#include "sim/simulator.hpp"

namespace netclone::harness {

EngineContext::EngineContext() : sim_(std::make_unique<sim::Simulator>()) {}

EngineContext::~EngineContext() = default;

sim::Scheduler& EngineContext::scheduler() { return *sim_; }

void EngineContext::run_until(SimTime deadline) {
  const wire::ScopedPoolBinding bind(pool_);
  sim_->run_until(deadline);
}

std::uint64_t EngineContext::executed_events() const {
  return sim_->executed_events();
}

}  // namespace netclone::harness

#include "sim/simulator.hpp"

namespace netclone::sim {

Simulator::~Simulator() {
  streams_.for_each([](const StreamHead& head) {
    head.stream->heap_pos_ = Stream::kUnarmed;
  });
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && fire_next(SimTime::max())) {
  }
}

void Simulator::run_until(SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && fire_next(deadline)) {
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

std::size_t Simulator::pending_events() const {
  std::size_t pending = events_.size();
  streams_.for_each([&pending](const StreamHead& head) {
    pending += head.stream->pending_events();
  });
  return pending;
}

}  // namespace netclone::sim

// Raw event-engine throughput: schedule/fire, self-rescheduling chains, and
// schedule/cancel, in events per second.
//
// The engine is the hottest path in the repository — every latency figure
// rides on it — so its throughput trajectory is tracked from this bench
// forward (BENCH_sim_engine.json, info rows). The work a whole run puts on
// the engine is pinned exactly by the executed-event counts of
// bench_packet_path and bench_multirack.
//
// Usage: bench_sim_engine [output.json]   (default: BENCH_sim_engine.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace {

using netclone::SimTime;
using netclone::sim::Simulator;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The simulation's events capture a node pointer plus a frame or a few
/// scalars — 40-to-60 bytes (see Link::transmit, Client::handle_frame).
/// The bench payload mirrors that, within EventCallback's 64.
struct CountPayload {
  std::uint64_t* counter;
  std::uint64_t pad[4] = {};  // representative capture bulk
  void operator()() const { ++*counter; }
};

/// Schedule `batch` events, run them all, repeat. Keeps a realistic queue
/// depth and measures the plain schedule->fire cycle.
double bench_schedule_fire(std::size_t batch, std::size_t rounds) {
  Simulator sim;
  std::uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const SimTime base = sim.now();
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(base + SimTime::nanoseconds(static_cast<int64_t>(i)),
                      CountPayload{&fired});
    }
    sim.run();
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(fired == batch * rounds, "bench lost events");
  return static_cast<double>(fired) / elapsed;
}

/// `chains` events that each reschedule themselves from inside the
/// callback — the pattern of every timer/arrival loop in the simulation.
struct ChainState {
  Simulator sim;
  std::uint64_t fired = 0;
  std::size_t chains = 0;
  std::uint64_t total = 0;

  struct Hop {
    ChainState* st;
    std::uint64_t pad[4] = {};  // representative capture bulk
    void operator()() const { st->hop(); }
  };

  void hop() {
    ++fired;
    if (fired + chains <= total) {
      sim.schedule_after(SimTime::nanoseconds(1), Hop{this});
    }
  }
};

double bench_fire_chain(std::size_t chains, std::uint64_t total) {
  ChainState state;
  state.chains = chains;
  state.total = total;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < chains; ++c) {
    state.sim.schedule_after(SimTime::nanoseconds(1), ChainState::Hop{&state});
  }
  state.sim.run();
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(state.fired >= total - chains && state.fired <= total,
                 "bench lost events");
  return static_cast<double>(state.fired) / elapsed;
}

/// Schedule `batch` events and cancel every one (the retransmit-timeout
/// pattern: most timers are cancelled, not fired). Counts one
/// schedule+cancel pair as one op.
double bench_schedule_cancel(std::size_t batch, std::size_t rounds) {
  Simulator sim;
  std::uint64_t never = 0;
  std::vector<netclone::sim::EventId> ids(batch);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const SimTime base = sim.now();
    for (std::size_t i = 0; i < batch; ++i) {
      ids[i] = sim.schedule_at(
          base + SimTime::nanoseconds(static_cast<int64_t>(i + 1)),
          CountPayload{&never});
    }
    for (std::size_t i = 0; i < batch; ++i) {
      sim.cancel(ids[i]);
    }
    // Cancel removed every event, so this run must fire nothing.
    sim.run();
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(never == 0, "cancelled events must not fire");
  return static_cast<double>(batch * rounds) / elapsed;
}

struct Row {
  const char* name;
  double events_per_second;
};

/// Best-of-N: the container this runs in is shared, so the max over a few
/// repetitions is the measurement least polluted by co-tenant noise.
template <typename Fn>
double best_of(int reps, Fn fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    best = std::max(best, fn());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : std::string("BENCH_sim_engine.json");

  constexpr std::size_t kBatch = 4096;
  constexpr std::size_t kRounds = 512;
  constexpr std::size_t kChains = 64;
  constexpr std::uint64_t kChainTotal = 2'000'000;
  constexpr int kReps = 3;

  // Warmup (page in, settle the branch predictors).
  (void)bench_schedule_fire(kBatch, 8);

  const Row rows[] = {
      {"schedule_fire",
       best_of(kReps, [&] { return bench_schedule_fire(kBatch, kRounds); })},
      {"fire_chain",
       best_of(kReps, [&] { return bench_fire_chain(kChains, kChainTotal); })},
      {"schedule_cancel",
       best_of(kReps,
               [&] { return bench_schedule_cancel(kBatch, kRounds); })},
  };

  std::printf("%-16s %15s\n", "workload", "events/s");
  for (const Row& row : rows) {
    std::printf("%-16s %15.3e\n", row.name, row.events_per_second);
  }

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"sim_engine\",\n  \"unit\": \"events_per_second\"";
  for (const Row& row : rows) {
    json << ",\n  \"" << row.name
         << "\": " << static_cast<std::uint64_t>(row.events_per_second);
  }
  json << "\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

// The work the Figure-7 point does per request, and its wall time.
//
// bench::fig7_point() runs three times, wall-clocked best of 3. Its
// completions, p99 and work counts (requests sent, events, frames, pool
// acquires, pipeline passes, recirculations, clones, filtered responses)
// are exact keys the bench gate pins, and the reruns must reproduce them.
// The wall clock is an info row. Results land in BENCH_packet_path.json.
//
// Usage: bench_packet_path [output.json]  (default: BENCH_packet_path.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "harness/experiment.hpp"
#include "wire/framebuf.hpp"

using namespace netclone;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct E2e {
  double wall_s = 0.0;
  harness::ExperimentResult result{};
  bench::WorkCounts work{};
  wire::FramePool::Stats pool{};  // the experiment's own frame pool
};

/// bench::fig7_point, wall-clocked from configuration to result.
E2e run_fig7_point() {
  const auto start = std::chrono::steady_clock::now();
  harness::Experiment experiment{bench::fig7_point()};
  E2e out;
  out.result = experiment.run();
  out.wall_s = seconds_since(start);
  out.work = bench::work_counts(experiment);
  out.pool = experiment.frame_pool_stats().front();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_packet_path.json";

  std::printf("end-to-end (fig7-style NetClone point, wall clock, "
              "best of 3):\n");
  E2e fig7 = run_fig7_point();
  for (int i = 1; i < 3; ++i) {
    const E2e again = run_fig7_point();
    // Reruns must reproduce the simulated results exactly.
    NETCLONE_CHECK(again.result.completed == fig7.result.completed &&
                       again.result.p99 == fig7.result.p99 &&
                       again.work == fig7.work,
                   "fig7 rerun changed simulated behavior");
    fig7.wall_s = std::min(fig7.wall_s, again.wall_s);
  }
  std::printf("  %8.3f s wall  (%llu completed, p99 %s)\n\n", fig7.wall_s,
              static_cast<unsigned long long>(fig7.result.completed),
              to_string(fig7.result.p99).c_str());

  const wire::FramePool::Stats& pool = fig7.pool;
  std::printf("fig7 point frame pool: %llu acquires, %llu recycled "
              "(%.1f%%), %llu slabs\n",
              static_cast<unsigned long long>(pool.acquired),
              static_cast<unsigned long long>(pool.recycled),
              pool.acquired > 0
                  ? 100.0 * static_cast<double>(pool.recycled) /
                        static_cast<double>(pool.acquired)
                  : 0.0,
              static_cast<unsigned long long>(pool.slabs_allocated));

  std::ofstream out{out_path};
  out << "{\n"
      << "  \"bench\": \"packet_path\",\n"
      << "  \"unit\": \"seconds\",\n"
      << "  \"fig7_completed\": " << fig7.result.completed << ",\n"
      << "  \"fig7_p99_ns\": " << fig7.result.p99.ns() << ",\n";
  std::printf("\n");
  bench::write_work_counts(out, "fig7", fig7.work, "core.cloned");
  out << "  \"fig7_point_wall_seconds\": " << fig7.wall_s << "\n"
      << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

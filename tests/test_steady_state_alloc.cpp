// The packet path's steady state allocates nothing.
//
// This binary replaces the global operator new with a counting one. It
// runs the Fig. 7 point (bench_packet_path) and the replicated pod point
// (bench_multirack), reads the count and the requests issued when the
// measured window opens and when it closes — two events on the run's own
// engine — and asserts fewer than one allocation per 1,000 requests in
// between. Growth during warm-up is fine: that is where queues, rings,
// tables and pools reach their peak sizes. Latency histograms reserve
// their range at construction and clients size their completion bitmaps
// in start(), so neither grows in the window; the margin tolerates a
// rare doubling of a queue or a table.
//
// Sanitizer builds skip it: ASan and TSan supply their own operator new,
// and ASan also turns frame recycling off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "harness/experiment.hpp"
#include "harness/multirack.hpp"
#include "host/service.hpp"
#include "host/workload.hpp"

#if !defined(NETCLONE_SANITIZED)

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) {
    return p;
  }
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // !NETCLONE_SANITIZED

namespace netclone::harness {
namespace {

/// The high-variability jitter of the figure benches: p = 0.01 at 15x,
/// plus 8% per-execution noise.
constexpr host::JitterModel kJitter{0.01, 15.0, 0.08};
constexpr SimTime kWarmup = SimTime::milliseconds(2);
constexpr SimTime kMeasure = SimTime::milliseconds(20);
constexpr SimTime kDrain = SimTime::milliseconds(10);

/// Allocations and requests issued inside the measured window.
struct Window {
  std::uint64_t allocations = 0;
  std::uint64_t requests = 0;
};

/// Runs `bed` with the counter read at both ends of its measured window.
Window measure_window(Testbed& bed) {
#if defined(NETCLONE_SANITIZED)
  (void)bed;
  return {};
#else
  const auto requests = [&bed] {
    std::uint64_t sent = 0;
    for (const host::Client* client : bed.clients()) {
      sent += client->stats().requests_sent;
    }
    return sent;
  };
  Window opened;
  Window closed;
  sim::Simulator& sim = bed.simulator();
  sim.schedule_at(kWarmup, [&] {
    opened = {g_allocations.load(), requests()};
  });
  sim.schedule_at(kWarmup + kMeasure, [&] {
    closed = {g_allocations.load(), requests()};
  });
  (void)bed.run();
  return {closed.allocations - opened.allocations,
          closed.requests - opened.requests};
#endif
}

/// bench::fig7_point: NetClone, Exp(25) on 6 servers x 16 workers at 80%
/// of capacity.
ClusterConfig fig7_point() {
  ClusterConfig cfg;
  cfg.scheme = Scheme::kNetClone;
  cfg.server_workers.assign(6, 16);
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service = std::make_shared<host::SyntheticService>(kJitter);
  cfg.warmup = kWarmup;
  cfg.measure = kMeasure;
  cfg.drain = kDrain;
  cfg.offered_rps = 0.8 * cluster_capacity_rps(
                              cfg.server_workers,
                              25.0 * kJitter.mean_inflation());
  return cfg;
}

/// bench_multirack's pod: 3 racks x 3 servers behind 2 chain-replicated
/// NetClone aggregation switches, 4 clients, at 80% of capacity.
MultiRackConfig pod_point() {
  MultiRackConfig cfg;
  cfg.server_racks = 3;
  cfg.servers_per_rack = 3;
  cfg.num_aggs = 2;
  cfg.agg_mode = AggMode::kReplicated;
  cfg.workers = 16;
  cfg.num_clients = 4;
  cfg.factory = std::make_shared<host::ExponentialWorkload>(25.0);
  cfg.service = std::make_shared<host::SyntheticService>(kJitter);
  cfg.warmup = kWarmup;
  cfg.measure = kMeasure;
  cfg.drain = kDrain;
  cfg.seed = 23;
  cfg.offered_rps = 0.8 * cluster_capacity_rps(
                              std::vector<std::uint32_t>(9, cfg.workers),
                              25.0 * kJitter.mean_inflation());
  return cfg;
}

void expect_allocation_free(const Window& window) {
  ASSERT_GT(window.requests, 10000U) << "the window issued too few requests";
  EXPECT_LT(window.allocations * 1000, window.requests)
      << window.allocations << " allocations for " << window.requests
      << " requests in the measured window";
}

TEST(SteadyStateAlloc, Fig7PointAllocatesNothingInItsWindow) {
#if defined(NETCLONE_SANITIZED)
  GTEST_SKIP() << "sanitizers supply their own operator new";
#endif
  Experiment experiment{fig7_point()};
  expect_allocation_free(measure_window(experiment));
}

TEST(SteadyStateAlloc, ReplicatedPodPointAllocatesNothingInItsWindow) {
#if defined(NETCLONE_SANITIZED)
  GTEST_SKIP() << "sanitizers supply their own operator new";
#endif
  MultiRackExperiment experiment{pod_point()};
  expect_allocation_free(measure_window(experiment));
}

}  // namespace
}  // namespace netclone::harness

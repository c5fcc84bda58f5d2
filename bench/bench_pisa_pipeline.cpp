// PISA pipeline execution throughput: the flat-table / compile-time-check
// fast path vs a faithful replica of the seed-era path, measured three
// ways.
//
//   * per-pass: one Alg.-1-shaped request pass (two match-table lookups,
//     a register RMW, the SEQ counter, a forwarding lookup) in passes per
//     second. The "legacy" side reproduces the pre-change semantics in
//     this binary: std::unordered_map-backed tables and out-of-line
//     per-resource access bookkeeping (last-pass id + stage order checked
//     on every access, in every build). Both sides run the same packet
//     math and must produce bit-identical digests.
//   * lookups: raw match-table probe rate, hit and miss, flat
//     open-addressing table vs unordered_map with access bookkeeping.
//   * end-to-end: one Figure-7-style NetClone experiment wall-clocked on
//     the real simulator, with the deterministic simulated digests
//     (completed count, p99) recorded so CI can exact-match them across
//     machines.
//
// Every timed section is best-of-3. Results land in
// BENCH_pisa_pipeline.json.
//
// Usage: bench_pisa_pipeline [output.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "harness/experiment.hpp"
#include "pisa/pipeline.hpp"
#include "pisa/resources.hpp"

using namespace netclone;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

template <typename Fn>
double best_of_3(Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < 3; ++i) {
    best = std::max(best, fn());
  }
  return best;
}

constexpr std::size_t kServers = 64;
constexpr std::size_t kGroups = 16;
constexpr std::size_t kFwdEntries = 256;

// ---- legacy replica ------------------------------------------------------
// The seed-era execution path: every resource access went through an
// out-of-line bookkeeping call that compared the resource's stage against
// the pass's current stage and its last-pass id against the pass id (the
// single-access rule), in every build; match tables were
// std::unordered_map. Kept in this binary so the speedup is measured
// against the real former semantics, not a guess.

struct LegacyPass {
  std::uint64_t id = 0;
  std::size_t current_stage = 0;
};

struct LegacyAccessState {
  std::size_t stage = 0;
  std::uint64_t last_pass_id = ~std::uint64_t{0};
};

[[gnu::noinline]] void legacy_record_access(LegacyPass& pass,
                                            LegacyAccessState& state) {
  NETCLONE_CHECK(state.stage >= pass.current_stage,
                 "stage order violated in legacy replica");
  NETCLONE_CHECK(state.last_pass_id != pass.id,
                 "double access in legacy replica");
  state.last_pass_id = pass.id;
  pass.current_stage = state.stage;
}

struct LegacyTable {
  LegacyAccessState access;
  std::unordered_map<std::uint64_t, std::uint32_t> map;

  std::optional<std::uint32_t> lookup(LegacyPass& pass, std::uint64_t key) {
    legacy_record_access(pass, access);
    const auto it = map.find(key);
    if (it == map.end()) {
      return std::nullopt;
    }
    return it->second;
  }
};

struct LegacyRegisterArray {
  LegacyAccessState access;
  std::vector<std::uint32_t> cells;

  template <typename Fn>
  auto execute(LegacyPass& pass, std::size_t index, Fn&& fn) {
    legacy_record_access(pass, access);
    NETCLONE_CHECK(index < cells.size(), "legacy register out of range");
    return fn(cells[index]);
  }
};

struct LegacyRegisterScalar {
  LegacyAccessState access;
  std::uint32_t cell = 0;

  template <typename Fn>
  auto execute(LegacyPass& pass, Fn&& fn) {
    legacy_record_access(pass, access);
    return fn(cell);
  }
};

// ---- the measured pass ---------------------------------------------------
// The request-ingress resource sequence of Alg. 1: group membership
// lookup, server address lookup, server-state register RMW, the SEQ
// counter, and the forwarding table. Identical math on both sides; the
// returned digest must match bit for bit.

struct FastProgram {
  pisa::Pipeline pipeline;
  pisa::ExactMatchTable<std::uint32_t> grp{pipeline, "GrpT", 1, kGroups, 2,
                                           16};
  pisa::ExactMatchTable<std::uint32_t> addr{pipeline,     "AddrT", 2,
                                            kFwdEntries, 2,       10};
  pisa::RegisterArray<std::uint32_t> state{pipeline, "StateT", 3, kServers};
  pisa::RegisterScalar<std::uint32_t> seq{pipeline, "SEQ", 4};
  pisa::ExactMatchTable<std::uint32_t> fwd{pipeline,     "FwdT", 6,
                                           kFwdEntries, 4,      8};

  std::uint64_t request_pass(std::uint64_t i) {
    pisa::PipelinePass pass{pipeline};
    const std::uint32_t* g = grp.find(pass, i & (kGroups - 1));
    const std::uint32_t* a = addr.find(pass, *g + (i & 3U));
    const std::uint32_t s = state.execute(
        pass, *a % kServers, [](std::uint32_t& cell) { return ++cell; });
    const std::uint32_t q =
        seq.execute(pass, [](std::uint32_t& c) { return ++c; });
    const std::uint32_t* f = fwd.find(pass, *a);
    return (static_cast<std::uint64_t>(*f) << 32) ^ s ^
           (static_cast<std::uint64_t>(q) << 8);
  }
};

struct LegacyProgram {
  std::uint64_t next_pass_id = 1;
  LegacyTable grp{{1, ~std::uint64_t{0}}, {}};
  LegacyTable addr{{2, ~std::uint64_t{0}}, {}};
  LegacyRegisterArray state{{3, ~std::uint64_t{0}}, {}};
  LegacyRegisterScalar seq{{4, ~std::uint64_t{0}}, 0};
  LegacyTable fwd{{6, ~std::uint64_t{0}}, {}};

  std::uint64_t request_pass(std::uint64_t i) {
    LegacyPass pass{next_pass_id++, 0};
    const auto g = grp.lookup(pass, i & (kGroups - 1));
    const auto a = addr.lookup(pass, *g + (i & 3U));
    const std::uint32_t s = state.execute(
        pass, *a % kServers, [](std::uint32_t& cell) { return ++cell; });
    const std::uint32_t q =
        seq.execute(pass, [](std::uint32_t& c) { return ++c; });
    const auto f = fwd.lookup(pass, *a);
    return (static_cast<std::uint64_t>(*f) << 32) ^ s ^
           (static_cast<std::uint64_t>(q) << 8);
  }
};

// Identical control-plane contents on both sides.
template <typename InsertGrp, typename InsertAddr, typename InsertFwd>
void populate(InsertGrp&& grp, InsertAddr&& addr, InsertFwd&& fwd) {
  for (std::uint64_t g = 0; g < kGroups; ++g) {
    grp(g, static_cast<std::uint32_t>(g * 4));
  }
  for (std::uint64_t a = 0; a < kFwdEntries; ++a) {
    addr(a, static_cast<std::uint32_t>((a * 7 + 1) % kFwdEntries));
    fwd(a, static_cast<std::uint32_t>(a + 1000));
  }
}

struct RateAndDigest {
  double per_second = 0.0;
  std::uint64_t digest = 0;
};

RateAndDigest bench_fast_pass(std::size_t iters) {
  FastProgram prog;
  populate([&](auto k, auto v) { prog.grp.insert(k, v); },
           [&](auto k, auto v) { prog.addr.insert(k, v); },
           [&](auto k, auto v) { prog.fwd.insert(k, v); });
  std::uint64_t digest = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    digest ^= prog.request_pass(i) + i;
  }
  const double elapsed = seconds_since(start);
  return {static_cast<double>(iters) / elapsed, digest};
}

RateAndDigest bench_legacy_pass(std::size_t iters) {
  LegacyProgram prog;
  prog.state.cells.assign(kServers, 0);
  populate([&](auto k, auto v) { prog.grp.map.emplace(k, v); },
           [&](auto k, auto v) { prog.addr.map.emplace(k, v); },
           [&](auto k, auto v) { prog.fwd.map.emplace(k, v); });
  std::uint64_t digest = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    digest ^= prog.request_pass(i) + i;
  }
  const double elapsed = seconds_since(start);
  return {static_cast<double>(iters) / elapsed, digest};
}

// ---- raw lookup rate -----------------------------------------------------

double bench_fast_lookup(std::size_t iters, bool hit) {
  pisa::Pipeline pipeline;
  pisa::ExactMatchTable<std::uint32_t> table{pipeline,     "T", 1,
                                             kFwdEntries, 4,   8};
  for (std::uint64_t k = 0; k < kFwdEntries; ++k) {
    table.insert(k, static_cast<std::uint32_t>(k));
  }
  const std::uint64_t offset = hit ? 0 : kFwdEntries;
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    pisa::PipelinePass pass{pipeline};
    const std::uint32_t* v =
        table.find(pass, (i & (kFwdEntries - 1)) + offset);
    sink += v != nullptr ? *v : 1;
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(sink > 0, "sink");
  return static_cast<double>(iters) / elapsed;
}

double bench_legacy_lookup(std::size_t iters, bool hit) {
  LegacyTable table{{1, ~std::uint64_t{0}}, {}};
  for (std::uint64_t k = 0; k < kFwdEntries; ++k) {
    table.map.emplace(k, static_cast<std::uint32_t>(k));
  }
  const std::uint64_t offset = hit ? 0 : kFwdEntries;
  std::uint64_t next_pass_id = 1;
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    LegacyPass pass{next_pass_id++, 0};
    const auto v = table.lookup(pass, (i & (kFwdEntries - 1)) + offset);
    sink += v ? *v : 1;
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(sink > 0, "sink");
  return static_cast<double>(iters) / elapsed;
}

// ---- end to end ----------------------------------------------------------

harness::ExperimentResult run_fig7_point() {
  harness::Experiment experiment{bench::fig7_point()};
  return experiment.run();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_pisa_pipeline.json";

  constexpr std::size_t kPassIters = 10000000;
  constexpr std::size_t kLookupIters = 40000000;

  std::printf("pisa pipeline bench: checks %s, best of 3\n\n",
              pisa::pipeline_checks_enabled() ? "compiled in"
                                              : "compiled out");

  // Sanity first: the fast path and the legacy replica must compute
  // bit-identical packet digests.
  {
    const RateAndDigest fast = bench_fast_pass(10000);
    const RateAndDigest legacy = bench_legacy_pass(10000);
    NETCLONE_CHECK(fast.digest == legacy.digest,
                   "fast pass digest diverges from the legacy replica");
  }

  const double pass_legacy =
      best_of_3([] { return bench_legacy_pass(kPassIters).per_second; });
  const double pass_fast =
      best_of_3([] { return bench_fast_pass(kPassIters).per_second; });
  std::printf("request pass (2 lookups + RMW + SEQ + fwd):\n");
  std::printf("  legacy : %12.0f passes/s  (%.1f ns/pass)\n", pass_legacy,
              1e9 / pass_legacy);
  std::printf("  fast   : %12.0f passes/s  (%.1f ns/pass)   (%.2fx)\n\n",
              pass_fast, 1e9 / pass_fast, pass_fast / pass_legacy);

  const double hit_legacy = best_of_3(
      [] { return bench_legacy_lookup(kLookupIters, /*hit=*/true); });
  const double hit_fast = best_of_3(
      [] { return bench_fast_lookup(kLookupIters, /*hit=*/true); });
  const double miss_legacy = best_of_3(
      [] { return bench_legacy_lookup(kLookupIters, /*hit=*/false); });
  const double miss_fast = best_of_3(
      [] { return bench_fast_lookup(kLookupIters, /*hit=*/false); });
  std::printf("match-table lookups:\n");
  std::printf("  hit  legacy : %12.0f /s\n", hit_legacy);
  std::printf("  hit  fast   : %12.0f /s   (%.2fx)\n", hit_fast,
              hit_fast / hit_legacy);
  std::printf("  miss legacy : %12.0f /s\n", miss_legacy);
  std::printf("  miss fast   : %12.0f /s   (%.2fx)\n\n", miss_fast,
              miss_fast / miss_legacy);

  std::printf("end-to-end (fig7-style NetClone point, wall clock, "
              "best of 3):\n");
  double e2e_s = 1e30;
  harness::ExperimentResult res{};
  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const harness::ExperimentResult r = run_fig7_point();
    const double wall = seconds_since(start);
    if (i == 0) {
      res = r;
    } else {
      // The simulation is deterministic: repeat runs must agree exactly.
      NETCLONE_CHECK(r.completed == res.completed && r.p99 == res.p99,
                     "fig7 point is not deterministic");
    }
    e2e_s = std::min(e2e_s, wall);
  }
  std::printf("  wall %.3f s  (%llu completed, p99 %s)\n", e2e_s,
              static_cast<unsigned long long>(res.completed),
              to_string(res.p99).c_str());

  std::ofstream out{out_path};
  out << "{\n"
      << "  \"bench\": \"pisa_pipeline\",\n"
      << "  \"pipeline_checks\": "
      << (pisa::pipeline_checks_enabled() ? 1 : 0) << ",\n"
      << "  \"request_pass_fast\": "
      << static_cast<std::uint64_t>(pass_fast) << ",\n"
      << "  \"request_pass_legacy\": "
      << static_cast<std::uint64_t>(pass_legacy) << ",\n"
      << "  \"lookup_hit_fast\": " << static_cast<std::uint64_t>(hit_fast)
      << ",\n"
      << "  \"lookup_hit_legacy\": "
      << static_cast<std::uint64_t>(hit_legacy) << ",\n"
      << "  \"lookup_miss_fast\": "
      << static_cast<std::uint64_t>(miss_fast) << ",\n"
      << "  \"lookup_miss_legacy\": "
      << static_cast<std::uint64_t>(miss_legacy) << ",\n"
      << "  \"fig7_point_wall_seconds\": " << e2e_s << ",\n"
      << "  \"fig7_completed\": "
      << static_cast<std::uint64_t>(res.completed) << ",\n"
      << "  \"fig7_p99_ns\": " << res.p99.ns() << "\n"
      << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

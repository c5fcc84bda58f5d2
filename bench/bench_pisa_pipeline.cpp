// PISA pipeline execution throughput: the flat match tables and the
// per-pass legality checks, measured two ways.
//
//   * per-pass: one Alg.-1-shaped request pass (two match-table lookups,
//     a register RMW, the SEQ counter, a forwarding lookup) in passes per
//     second.
//   * lookups: raw match-table probe rate, hit and miss.
//
// Every timed section is best-of-3. The rates are info rows; the work a
// pass does in a whole run is pinned by bench_packet_path and
// bench_multirack. Results land in BENCH_pisa_pipeline.json.
//
// Usage: bench_pisa_pipeline [output.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/check.hpp"
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

// ---- the measured pass ---------------------------------------------------
// The request-ingress resource sequence of Alg. 1: group membership
// lookup, server address lookup, server-state register RMW, the SEQ
// counter, and the forwarding table.

struct Program {
  pisa::Pipeline pipeline;
  pisa::ExactMatchTable<std::uint32_t> grp{pipeline, "GrpT", 1, kGroups, 2,
                                           16};
  pisa::ExactMatchTable<std::uint32_t> addr{pipeline,     "AddrT", 2,
                                            kFwdEntries, 2,       10};
  pisa::RegisterArray<std::uint32_t> state{pipeline, "StateT", 3, kServers};
  pisa::RegisterScalar<std::uint32_t> seq{pipeline, "SEQ", 4};
  pisa::ExactMatchTable<std::uint32_t> fwd{pipeline,     "FwdT", 6,
                                           kFwdEntries, 4,      8};

  Program() {
    for (std::uint64_t g = 0; g < kGroups; ++g) {
      grp.insert(g, static_cast<std::uint32_t>(g * 4));
    }
    for (std::uint64_t a = 0; a < kFwdEntries; ++a) {
      addr.insert(a, static_cast<std::uint32_t>((a * 7 + 1) % kFwdEntries));
      fwd.insert(a, static_cast<std::uint32_t>(a + 1000));
    }
  }

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

double bench_pass(std::size_t iters) {
  Program prog;
  std::uint64_t digest = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    digest ^= prog.request_pass(i) + i;
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(digest != 0, "sink");
  return static_cast<double>(iters) / elapsed;
}

// ---- raw lookup rate -----------------------------------------------------

double bench_lookup(std::size_t iters, bool hit) {
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

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_pisa_pipeline.json";

  constexpr std::size_t kPassIters = 10000000;
  constexpr std::size_t kLookupIters = 40000000;

  std::printf("pisa pipeline bench: best of 3\n\n");

  const double pass = best_of_3([] { return bench_pass(kPassIters); });
  std::printf("request pass (2 lookups + RMW + SEQ + fwd):\n");
  std::printf("  %12.0f passes/s  (%.1f ns/pass)\n\n", pass, 1e9 / pass);

  const double hit =
      best_of_3([] { return bench_lookup(kLookupIters, /*hit=*/true); });
  const double miss =
      best_of_3([] { return bench_lookup(kLookupIters, /*hit=*/false); });
  std::printf("match-table lookups:\n");
  std::printf("  hit  : %12.0f /s\n", hit);
  std::printf("  miss : %12.0f /s\n", miss);

  std::ofstream out{out_path};
  out << "{\n"
      << "  \"bench\": \"pisa_pipeline\",\n"
      << "  \"request_pass\": " << static_cast<std::uint64_t>(pass) << ",\n"
      << "  \"lookup_hit\": " << static_cast<std::uint64_t>(hit) << ",\n"
      << "  \"lookup_miss\": " << static_cast<std::uint64_t>(miss) << "\n"
      << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

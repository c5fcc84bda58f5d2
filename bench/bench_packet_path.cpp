// Packet-path throughput of the zero-copy frame layer, plus the work the
// Figure-7 point does per request.
//
//   * per-hop: the switch-hop cycle on one frame, in frames per second: open
//     a PacketView on the pooled buffer, write the fields in place (RFC 1624
//     incremental checksums) and take the frame.
//   * multicast: one packet replicated to 8 ports: open a view, take the
//     frame and bump a refcount per port.
//   * end-to-end: bench::fig7_point(), wall-clocked best of 3. Its
//     completions, p99 and work counts (requests sent, events, frames,
//     pool acquires, pipeline passes, recirculations, clones, filtered
//     responses) are exact keys the bench gate pins.
//
// Before timing, one hop's bytes are checked against the Packet::serialize()
// oracle the tests also hold the view to. The rates and the wall clock are
// info rows. Results land in BENCH_packet_path.json.
//
// Usage: bench_packet_path [output.json]  (default: BENCH_packet_path.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/check.hpp"
#include "harness/experiment.hpp"
#include "wire/frame.hpp"
#include "wire/framebuf.hpp"

using namespace netclone;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

wire::Packet sample_packet(std::size_t payload_size) {
  wire::NetCloneHeader nc;
  nc.type = wire::MsgType::kRequest;
  nc.grp = 12;
  nc.idx = 1;
  nc.client_id = 3;
  nc.client_seq = 99;
  wire::Frame payload(payload_size, std::byte{0x5A});
  return make_netclone_packet(wire::MacAddress::from_node(1),
                              wire::MacAddress::from_node(2),
                              wire::Ipv4Address::from_octets(10, 0, 0, 1),
                              wire::Ipv4Address::from_octets(10, 0, 255, 1),
                              40001, nc, std::move(payload));
}

/// The header rewrites one NetClone switch hop performs on a request.
void mutate_hop(wire::Packet& pkt, std::uint32_t i) {
  pkt.ip.dst = wire::Ipv4Address{0x0A000000U + (i & 0xFFU)};
  pkt.nc().req_id = i;
  pkt.nc().clo = (i & 1U) != 0 ? wire::CloneStatus::kClonedCopy
                               : wire::CloneStatus::kClonedOriginal;
  pkt.nc().sid = static_cast<std::uint8_t>(i & 0x3FU);
}

/// mutate_hop, written in place through a view.
void mutate_hop(wire::PacketView& pkt, std::uint32_t i) {
  pkt.set_ip_dst(wire::Ipv4Address{0x0A000000U + (i & 0xFFU)});
  pkt.set_req_id(i);
  pkt.set_clo((i & 1U) != 0 ? wire::CloneStatus::kClonedCopy
                            : wire::CloneStatus::kClonedOriginal);
  pkt.set_sid(static_cast<std::uint8_t>(i & 0x3FU));
}

/// One switch-hop cycle over a FrameHandle, zero-copy: a view over the
/// pooled buffer, fields written in place.
double bench_per_hop(std::size_t iters, std::size_t payload_size) {
  wire::FrameHandle frame{sample_packet(payload_size).serialize()};
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    wire::PacketView pkt{std::move(frame)};
    mutate_hop(pkt, static_cast<std::uint32_t>(i));
    frame = pkt.take_frame();
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(!frame.empty(), "sink");
  return static_cast<double>(iters) / elapsed;
}

constexpr std::size_t kFanOut = 8;

/// Zero-copy multicast: one view, then one refcount bump per port.
double bench_multicast(std::size_t iters, std::size_t payload_size) {
  const wire::FrameHandle incoming{sample_packet(payload_size).serialize()};
  std::size_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    wire::PacketView pkt{incoming};
    const wire::FrameHandle bytes = pkt.take_frame();
    for (std::size_t p = 0; p < kFanOut; ++p) {
      const wire::FrameHandle port_copy = bytes;
      sink += port_copy.size();
    }
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(sink > 0, "sink");
  return static_cast<double>(iters * kFanOut) / elapsed;
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

template <typename Fn>
double best_of_3(Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < 3; ++i) {
    best = std::max(best, fn());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_packet_path.json";

  // Sanity first: a hop through the view must emit the bytes the
  // Packet::serialize() oracle builds for the same rewrites.
  {
    const wire::Frame frame = sample_packet(128).serialize();
    wire::Packet oracle = wire::Packet::parse(frame);
    wire::PacketView view{wire::FrameHandle::copy_of(frame)};
    mutate_hop(oracle, 7);
    mutate_hop(view, 7);
    NETCLONE_CHECK(view.frame().to_frame() == oracle.serialize(),
                   "view bytes diverge from the serialize() oracle");
  }

  constexpr std::size_t kHopIters = 400000;
  constexpr std::size_t kMcastIters = 100000;
  constexpr std::size_t kPayload = 128;  // the paper's RPC regime

  std::printf("packet path bench: payload %zu B, best of 3\n\n", kPayload);

  const double hop =
      best_of_3([] { return bench_per_hop(kHopIters, kPayload); });
  std::printf("per-hop (view + in-place rewrite): %12.0f frames/s\n", hop);
  const double mc =
      best_of_3([] { return bench_multicast(kMcastIters, kPayload); });
  std::printf("multicast x%zu (copies emitted):  %12.0f frames/s\n\n",
              kFanOut, mc);

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
      << "  \"unit\": \"frames_per_second\",\n"
      << "  \"per_hop\": " << static_cast<std::uint64_t>(hop) << ",\n"
      << "  \"multicast8\": " << static_cast<std::uint64_t>(mc) << ",\n"
      << "  \"fig7_completed\": " << fig7.result.completed << ",\n"
      << "  \"fig7_p99_ns\": " << fig7.result.p99.ns() << ",\n";
  std::printf("\n");
  bench::write_work_counts(out, "fig7", fig7.work, "core.cloned");
  out << "  \"fig7_point_wall_seconds\": " << fig7.wall_s << "\n"
      << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

// Packet-path throughput: the zero-copy frame layer vs the legacy
// re-materializing path, plus the Figure-7 digest pins.
//
//   * per-hop: the switch-hop cycle (parse -> header rewrite -> deparse) on
//     one frame, in frames per second. "legacy" linearizes the frame into
//     vectors at parse (Packet::parse over to_frame()) and rebuilds +
//     copies it back into a handle at deparse (serialize()) — the data
//     path without the zero-copy layer. The fast path is the hop the
//     switch runs: it opens a PacketView on the pooled buffer, writes the
//     fields in place (RFC 1624 incremental checksums) and takes the
//     frame.
//   * multicast: one packet replicated to 8 ports. Legacy serializes per
//     port; the fast path opens a view, takes the frame and bumps a
//     refcount per port.
//   * end-to-end: one Figure-7-style NetClone experiment, wall-clocked.
//     Its completions, p99 and executed-event count are the fig7 digest
//     keys the bench gate pins exactly.
//
// Every timed section is best-of-3. Results land in BENCH_packet_path.json.
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
double bench_per_hop_fast(std::size_t iters, std::size_t payload_size) {
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

/// The same cycle without the zero-copy layer: every hop linearizes the
/// frame to vectors and rebuilds it into a fresh handle.
double bench_per_hop_legacy(std::size_t iters, std::size_t payload_size) {
  wire::FrameHandle frame{sample_packet(payload_size).serialize()};
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    wire::Packet pkt = wire::Packet::parse(frame.to_frame());
    frame.reset();
    mutate_hop(pkt, static_cast<std::uint32_t>(i));
    frame = wire::FrameHandle{pkt.serialize()};
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(!frame.empty(), "sink");
  return static_cast<double>(iters) / elapsed;
}

constexpr std::size_t kFanOut = 8;

/// Seed-era multicast: the packet is re-serialized once per output port.
double bench_multicast_legacy(std::size_t iters, std::size_t payload_size) {
  const wire::Frame frame = sample_packet(payload_size).serialize();
  const wire::Packet pkt = wire::Packet::parse(frame);
  std::size_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    for (std::size_t p = 0; p < kFanOut; ++p) {
      const wire::Frame copy = pkt.serialize();
      sink += copy.size();
    }
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(sink > 0, "sink");
  return static_cast<double>(iters * kFanOut) / elapsed;
}

/// Zero-copy multicast: one view, then one refcount bump per port.
double bench_multicast_fast(std::size_t iters, std::size_t payload_size) {
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
  std::uint64_t executed = 0;
  wire::FramePool::Stats pool{};  // the experiment's own frame pool
};

/// bench::fig7_point, wall-clocked from configuration to result.
E2e run_fig7_point() {
  const auto start = std::chrono::steady_clock::now();
  harness::Experiment experiment{bench::fig7_point()};
  E2e out;
  out.result = experiment.run();
  out.executed = experiment.executed_events();
  out.wall_s = seconds_since(start);
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

  // Sanity first: both paths must emit identical bytes for one hop.
  {
    const wire::Frame frame = sample_packet(128).serialize();
    wire::Packet legacy = wire::Packet::parse(frame);
    wire::PacketView fast{wire::FrameHandle::copy_of(frame)};
    mutate_hop(legacy, 7);
    mutate_hop(fast, 7);
    NETCLONE_CHECK(fast.frame().to_frame() == legacy.serialize(),
                   "fast path bytes diverge from the legacy oracle");
  }

  constexpr std::size_t kHopIters = 400000;
  constexpr std::size_t kMcastIters = 100000;
  constexpr std::size_t kPayload = 128;  // the paper's RPC regime

  std::printf("packet path bench: payload %zu B, best of 3\n\n", kPayload);

  const double hop_legacy =
      best_of_3([] { return bench_per_hop_legacy(kHopIters, kPayload); });
  const double hop_fast =
      best_of_3([] { return bench_per_hop_fast(kHopIters, kPayload); });
  std::printf("per-hop (parse+mutate+deparse):\n");
  std::printf("  legacy : %12.0f frames/s\n", hop_legacy);
  std::printf("  fast   : %12.0f frames/s   (%.2fx)\n\n", hop_fast,
              hop_fast / hop_legacy);

  const double mc_legacy = best_of_3(
      [] { return bench_multicast_legacy(kMcastIters, kPayload); });
  const double mc_fast =
      best_of_3([] { return bench_multicast_fast(kMcastIters, kPayload); });
  std::printf("multicast x%zu (copies emitted):\n", kFanOut);
  std::printf("  legacy : %12.0f frames/s\n", mc_legacy);
  std::printf("  fast   : %12.0f frames/s   (%.2fx)\n\n", mc_fast,
              mc_fast / mc_legacy);

  std::printf("end-to-end (fig7-style NetClone point, wall clock, "
              "best of 3):\n");
  E2e fig7 = run_fig7_point();
  for (int i = 1; i < 3; ++i) {
    const E2e again = run_fig7_point();
    // Reruns must reproduce the simulated results exactly.
    NETCLONE_CHECK(again.result.completed == fig7.result.completed &&
                       again.result.p99 == fig7.result.p99 &&
                       again.executed == fig7.executed,
                   "fig7 rerun changed simulated behavior");
    fig7.wall_s = std::min(fig7.wall_s, again.wall_s);
  }
  std::printf("  %8.3f s wall  (%llu completed, p99 %s, %llu events)\n\n",
              fig7.wall_s,
              static_cast<unsigned long long>(fig7.result.completed),
              to_string(fig7.result.p99).c_str(),
              static_cast<unsigned long long>(fig7.executed));

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
      << "  \"per_hop_fast\": " << static_cast<std::uint64_t>(hop_fast)
      << ",\n"
      << "  \"per_hop_legacy\": " << static_cast<std::uint64_t>(hop_legacy)
      << ",\n"
      << "  \"multicast8_fast\": " << static_cast<std::uint64_t>(mc_fast)
      << ",\n"
      << "  \"multicast8_legacy\": " << static_cast<std::uint64_t>(mc_legacy)
      << ",\n"
      << "  \"fig7_completed\": " << fig7.result.completed << ",\n"
      << "  \"fig7_p99_ns\": " << fig7.result.p99.ns() << ",\n"
      << "  \"fig7_executed_events\": " << fig7.executed << ",\n"
      << "  \"fig7_point_wall_seconds\": " << fig7.wall_s << "\n"
      << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

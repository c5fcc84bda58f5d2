// Packet-path throughput: the zero-copy frame layer vs the legacy
// re-materializing path, measured three ways.
//
//   * per-hop: the switch-hop cycle (parse -> header mutate -> deparse) on
//     one frame, in frames per second. Both sides run the identical
//     FrameHandle loop; "legacy" disables the fast path, so every hop
//     linearizes the frame into vectors at parse and rebuilds + copies it
//     back into a pooled buffer at deparse — the data path without the
//     zero-copy layer. The fast path views the pooled buffer and patches
//     dirty header bytes in place (RFC 1624 incremental checksums).
//   * multicast: one parsed packet replicated to 8 ports. Legacy serializes
//     per port; the fast path deparses once and bumps a refcount per port.
//   * end-to-end: one Figure-7-style NetClone experiment wall-clocked with
//     the fast path enabled vs disabled. Both runs must produce identical
//     simulated results (the fast path is byte-invisible); only the wall
//     clock may differ.
//   * per-hop burst: a 256-frame back-to-back chain through one link into
//     a burst-capable receiver — the configuration where the absorbing
//     drain replaces every delivery event but the first with a
//     probe-and-commit. "legacy" runs the same chain with NETCLONE_BURST
//     off (one scheduler dispatch per frame). The ratio is the event-loop
//     overhead the burst path removes per hop.
//   * absorb probe: raw try_absorb_event throughput against a populated
//     timing wheel (the per-frame cost of extending a burst).
//   * end-to-end burst: the same Figure-7 point wall-clocked with bursting
//     on vs off; like the fast path, the toggle must be invisible in
//     simulated results (the digest keys — completions, p99 and the
//     executed-event count — come from the burst run).
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
#include "host/service.hpp"
#include "host/workload.hpp"
#include "phys/burst.hpp"
#include "phys/link.hpp"
#include "phys/node.hpp"
#include "sim/simulator.hpp"
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
  pkt.nc().state = static_cast<std::uint16_t>(i & 0x3FU);
}

/// One switch-hop cycle over a FrameHandle. With the fast path on, the
/// backed parse views the pooled buffer and the deparse patches it in
/// place; with it off, every hop linearizes to vectors and rebuilds —
/// the per-hop byte traffic of the path without the zero-copy layer.
double bench_per_hop(bool fastpath, std::size_t iters,
                     std::size_t payload_size) {
  wire::set_packet_fastpath_enabled(fastpath);
  wire::FrameHandle frame{sample_packet(payload_size).serialize()};
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    wire::Packet pkt = wire::Packet::parse_backed(frame);
    frame.reset();
    mutate_hop(pkt, static_cast<std::uint32_t>(i));
    frame = pkt.serialize_pooled();
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(!frame.empty(), "sink");
  wire::set_packet_fastpath_enabled(true);
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

/// Zero-copy multicast: deparse once, then one refcount bump per port.
double bench_multicast_fast(std::size_t iters, std::size_t payload_size) {
  const wire::FrameHandle incoming{sample_packet(payload_size).serialize()};
  std::size_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    wire::Packet pkt = wire::Packet::parse_backed(incoming);
    const wire::FrameHandle bytes = pkt.serialize_pooled();
    for (std::size_t p = 0; p < kFanOut; ++p) {
      const wire::FrameHandle port_copy = bytes;
      sink += port_copy.size();
    }
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(sink > 0, "sink");
  return static_cast<double>(iters * kFanOut) / elapsed;
}

/// A receiver whose horizon swallows any chain we offer it: every frame
/// of a back-to-back run is absorbed into the head's delivery event.
class BurstSink final : public phys::Node {
 public:
  BurstSink() : phys::Node("sink") {}
  void handle_frame(std::size_t /*port*/, wire::FrameHandle frame) override {
    frames_ += 1;
    bytes_ += frame.size();
  }
  void handle_burst(std::size_t /*port*/, phys::FrameBurst&& burst) override {
    frames_ += burst.size();
    for (std::size_t i = 0; i < burst.size(); ++i) {
      bytes_ += burst[i].frame.size();
    }
  }
  [[nodiscard]] SimTime burst_horizon() const override {
    return SimTime::milliseconds(1);
  }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }

 private:
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Per-hop delivery cost through one link: 256 back-to-back frames per
/// run. In burst mode the drain fires one event and probe-absorbs the
/// other 255; with NETCLONE_BURST off every frame is a full scheduler
/// round-trip (insert into the wheel, pop, dispatch). Frames per second
/// of wall time — the simulated timeline is identical in both modes.
double bench_per_hop_burst(bool burst_on, std::size_t iters) {
  const bool prev = phys::burst_enabled();
  phys::set_burst_enabled(burst_on);
  sim::Simulator sim;
  BurstSink sink;
  phys::LinkParams params;
  params.rate_bps = 1e9;  // 125 B = 1 us per frame on the wire
  params.delay = SimTime::zero();
  params.queue_capacity = 512;
  phys::Link link{sim, params};
  link.connect_to(&sink, 0);
  const wire::FrameHandle frame =
      wire::FrameHandle::copy_of(wire::Frame(125, std::byte{0x42}));
  constexpr std::size_t kChain = 256;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    for (std::size_t k = 0; k < kChain; ++k) {
      link.transmit(frame);
    }
    sim.run();
  }
  const double elapsed = seconds_since(start);
  NETCLONE_CHECK(sink.frames() == iters * kChain, "frames lost in chain");
  // Absorbed deliveries count as executed, so the tally is mode-invariant.
  NETCLONE_CHECK(sim.executed_events() == iters * kChain, "event tally");
  phys::set_burst_enabled(prev);
  return static_cast<double>(iters * kChain) / elapsed;
}

/// Raw probe-and-commit throughput: the marginal cost of growing a burst
/// by one frame. The wheel holds far-future events so none_before() scans
/// real occupancy bitmaps instead of short-circuiting on an empty arena.
double bench_absorb_probe(std::size_t iters) {
  sim::Simulator sim;
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(SimTime::seconds(100 + i), [] {});
  }
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seq = sim.reserve_seq();
    NETCLONE_CHECK(sim.try_absorb_event(sim.now() + SimTime::nanoseconds(1),
                                        seq),
                   "probe refused on an idle queue");
  }
  const double elapsed = seconds_since(start);
  return static_cast<double>(iters) / elapsed;
}

struct E2e {
  double wall_s = 0.0;
  harness::ExperimentResult result{};
  std::uint64_t executed = 0;
  std::uint64_t absorbed = 0;
};

/// One Figure-7-style point: NetClone scheme, Exp(25) workload, 80% load.
harness::ExperimentResult run_fig7_point(E2e* out = nullptr) {
  harness::ClusterConfig cfg = bench::synthetic_cluster(
      std::make_shared<host::ExponentialWorkload>(25.0),
      bench::high_variability());
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.warmup = SimTime::milliseconds(2);
  cfg.measure = SimTime::milliseconds(20);
  cfg.drain = SimTime::milliseconds(10);
  cfg.offered_rps =
      0.8 * bench::synthetic_capacity(cfg, 25.0, bench::high_variability());
  harness::Experiment experiment{cfg};
  harness::ExperimentResult result = experiment.run();
  if (out != nullptr) {
    out->executed = experiment.executed_events();
    out->absorbed = experiment.absorbed_events();
  }
  return result;
}

E2e bench_end_to_end(bool fastpath) {
  wire::set_packet_fastpath_enabled(fastpath);
  const auto start = std::chrono::steady_clock::now();
  E2e out;
  out.result = run_fig7_point();
  out.wall_s = seconds_since(start);
  wire::set_packet_fastpath_enabled(true);
  return out;
}

E2e bench_end_to_end_burst(bool burst_on) {
  const bool prev = phys::burst_enabled();
  phys::set_burst_enabled(burst_on);
  const auto start = std::chrono::steady_clock::now();
  E2e out;
  out.result = run_fig7_point(&out);
  out.wall_s = seconds_since(start);
  phys::set_burst_enabled(prev);
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
    wire::Packet fast = wire::Packet::parse_backed(
        wire::FrameHandle::copy_of(frame));
    mutate_hop(legacy, 7);
    mutate_hop(fast, 7);
    NETCLONE_CHECK(fast.serialize_pooled().to_frame() == legacy.serialize(),
                   "fast path bytes diverge from the legacy oracle");
  }

  constexpr std::size_t kHopIters = 400000;
  constexpr std::size_t kMcastIters = 100000;
  constexpr std::size_t kPayload = 128;  // the paper's RPC regime

  std::printf("packet path bench: payload %zu B, best of 3\n\n", kPayload);

  const double hop_legacy =
      best_of_3([] { return bench_per_hop(false, kHopIters, kPayload); });
  const double hop_fast =
      best_of_3([] { return bench_per_hop(true, kHopIters, kPayload); });
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

  constexpr std::size_t kBurstIters = 3000;
  const double burst_legacy =
      best_of_3([] { return bench_per_hop_burst(false, kBurstIters); });
  const double burst_on =
      best_of_3([] { return bench_per_hop_burst(true, kBurstIters); });
  std::printf("per-hop burst (256-frame link chain, delivery cost):\n");
  std::printf("  legacy : %12.0f frames/s\n", burst_legacy);
  std::printf("  burst  : %12.0f frames/s   (%.2fx)\n\n", burst_on,
              burst_on / burst_legacy);

  const double probe_rate =
      best_of_3([] { return bench_absorb_probe(2000000); });
  std::printf("absorb probe (reserve + try_absorb_event): %12.0f /s\n\n",
              probe_rate);

  std::printf("end-to-end (fig7-style NetClone point, wall clock, "
              "best of 3):\n");
  double e2e_legacy_s = 1e30;
  double e2e_fast_s = 1e30;
  harness::ExperimentResult res_legacy{};
  harness::ExperimentResult res_fast{};
  for (int i = 0; i < 3; ++i) {
    const E2e legacy = bench_end_to_end(false);
    const E2e fast = bench_end_to_end(true);
    if (legacy.wall_s < e2e_legacy_s) {
      e2e_legacy_s = legacy.wall_s;
      res_legacy = legacy.result;
    }
    if (fast.wall_s < e2e_fast_s) {
      e2e_fast_s = fast.wall_s;
      res_fast = fast.result;
    }
  }
  // The fast path must be invisible in simulated results.
  NETCLONE_CHECK(res_fast.completed == res_legacy.completed &&
                     res_fast.p99 == res_legacy.p99,
                 "fast path changed simulated behavior");
  std::printf("  legacy : %8.3f s wall  (%llu completed, p99 %s)\n",
              e2e_legacy_s,
              static_cast<unsigned long long>(res_legacy.completed),
              to_string(res_legacy.p99).c_str());
  std::printf("  fast   : %8.3f s wall  (%llu completed, p99 %s)  "
              "(%.2fx)\n",
              e2e_fast_s,
              static_cast<unsigned long long>(res_fast.completed),
              to_string(res_fast.p99).c_str(), e2e_legacy_s / e2e_fast_s);

  std::printf("\nend-to-end burst (same fig7 point, NETCLONE_BURST on/off, "
              "best of 3):\n");
  double e2e_burst_off_s = 1e30;
  double e2e_burst_on_s = 1e30;
  double burst_absorbed_pct = 0.0;
  std::uint64_t fig7_executed = 0;
  harness::ExperimentResult res_burst_off{};
  harness::ExperimentResult res_burst_on{};
  for (int i = 0; i < 3; ++i) {
    const E2e off = bench_end_to_end_burst(false);
    const E2e on = bench_end_to_end_burst(true);
    if (off.wall_s < e2e_burst_off_s) {
      e2e_burst_off_s = off.wall_s;
      res_burst_off = off.result;
    }
    if (on.wall_s < e2e_burst_on_s) {
      e2e_burst_on_s = on.wall_s;
      res_burst_on = on.result;
      fig7_executed = on.executed;
      burst_absorbed_pct =
          on.executed > 0 ? 100.0 * static_cast<double>(on.absorbed) /
                                static_cast<double>(on.executed)
                          : 0.0;
    }
  }
  // The burst toggle, like the fast path, must be invisible in simulated
  // results — same completions, same tail, same digest keys.
  NETCLONE_CHECK(res_burst_on.completed == res_burst_off.completed &&
                     res_burst_on.p99 == res_burst_off.p99,
                 "burst mode changed simulated behavior");
  NETCLONE_CHECK(res_burst_on.completed == res_fast.completed &&
                     res_burst_on.p99 == res_fast.p99,
                 "burst runs diverge from the fast-path oracle runs");
  std::printf("  off    : %8.3f s wall  (%llu completed, p99 %s)\n",
              e2e_burst_off_s,
              static_cast<unsigned long long>(res_burst_off.completed),
              to_string(res_burst_off.p99).c_str());
  std::printf("  on     : %8.3f s wall  (%llu completed, p99 %s)  "
              "(%.2fx, %.1f%% of events absorbed)\n",
              e2e_burst_on_s,
              static_cast<unsigned long long>(res_burst_on.completed),
              to_string(res_burst_on.p99).c_str(),
              e2e_burst_off_s / e2e_burst_on_s,
              burst_absorbed_pct);

  const auto& pool = wire::FramePool::instance().stats();
  std::printf("\npool: %llu acquires, %llu recycled (%.1f%%), %llu slabs\n",
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
      << "  \"per_hop_burst\": " << static_cast<std::uint64_t>(burst_on)
      << ",\n"
      << "  \"per_hop_burst_legacy\": "
      << static_cast<std::uint64_t>(burst_legacy) << ",\n"
      << "  \"absorb_probe_per_second\": "
      << static_cast<std::uint64_t>(probe_rate) << ",\n"
      << "  \"fig7_completed\": " << res_burst_on.completed << ",\n"
      << "  \"fig7_p99_ns\": " << res_burst_on.p99.ns() << ",\n"
      << "  \"fig7_executed_events\": " << fig7_executed << ",\n"
      << "  \"fig7_point_wall_seconds_fast\": " << e2e_fast_s << ",\n"
      << "  \"fig7_point_wall_seconds_legacy\": " << e2e_legacy_s << ",\n"
      << "  \"fig7_point_wall_seconds_burst\": " << e2e_burst_on_s << ",\n"
      << "  \"fig7_point_wall_seconds_burst_legacy\": " << e2e_burst_off_s
      << "\n"
      << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

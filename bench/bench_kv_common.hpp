// Shared driver for the Redis (Fig. 11) and Memcached (Fig. 12) benches:
// 1M objects, 16 B keys / 64 B values, Zipf-0.99 reads, GET/SCAN mixes of
// 99%/1% and 90%/10%, 8 worker threads per server.
#pragma once

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "kv/kv_workload.hpp"

namespace netclone::bench {

inline int run_kv_figure(const char* figure,
                         const kv::KvCostProfile& profile) {
  std::printf("%s: %s, 1M objects, Zipf-0.99, 6 servers x 8 workers\n",
              figure, profile.name.c_str());

  // One read-replicated store shared by all simulated servers.
  auto store = std::make_shared<kv::KvStore>(1000000);
  kv::populate(*store, 1000000);

  harness::ShapeCheck check;
  for (const double get_fraction : {0.99, 0.90}) {
    kv::KvMix mix;
    mix.get_fraction = get_fraction;
    auto factory = std::make_shared<kv::KvRequestFactory>(mix, profile);

    harness::ClusterConfig base;
    base.server_workers.assign(6, 8);
    base.factory = factory;
    base.service = std::make_shared<kv::KvService>(store, profile,
                                                   high_variability());
    base.warmup = harness::scaled(SimTime::milliseconds(4));
    base.measure = harness::scaled(SimTime::milliseconds(20));
    base.drain = harness::scaled(SimTime::milliseconds(15));
    const double capacity = harness::cluster_capacity_rps(
        base.server_workers,
        factory->mean_intrinsic_us() * high_variability().mean_inflation());

    const auto loads = harness::default_load_points();
    std::vector<harness::SweepPoint> baseline;
    std::vector<harness::SweepPoint> cclone;
    std::vector<harness::SweepPoint> netclone;
    for (const harness::Scheme scheme :
         {harness::Scheme::kBaseline, harness::Scheme::kCClone,
          harness::Scheme::kNetClone}) {
      base.scheme = scheme;
      auto points = harness::run_sweep(base, capacity, loads);
      harness::print_series(std::string{figure} + " — " + factory->label() +
                                " — " + harness::scheme_name(scheme),
                            points);
      if (scheme == harness::Scheme::kBaseline) {
        baseline = std::move(points);
      } else if (scheme == harness::Scheme::kCClone) {
        cclone = std::move(points);
      } else {
        netclone = std::move(points);
      }
    }

    const double best =
        harness::best_p99_improvement(baseline, netclone);
    if (get_fraction > 0.95) {
      // 99%-GET: the p99 sits on the GET/SCAN knife edge — cloning that
      // masks queueing-behind-SCAN yields an order-of-magnitude gain at
      // some load (paper: up to 22.6x Redis / 22.0x Memcached).
      check.expect(best > 5.0,
                   std::string{figure} +
                       " 99/1: order-of-magnitude best-case p99 gain "
                       "(measured " +
                       std::to_string(best) + "x)");
    } else {
      // 90%-GET: p99 lives inside SCAN territory for everyone; gains are
      // modest (paper: 1.77x Redis / 1.24x Memcached).
      check.expect(best > 1.0 && best < 8.0,
                   std::string{figure} +
                       " 90/10: modest p99 gain (measured " +
                       std::to_string(best) + "x)");
    }
    // C-Clone: tail competitive with NetClone, throughput halved.
    const double tput_ratio = harness::peak_throughput(cclone) /
                              harness::peak_throughput(netclone);
    check.expect(tput_ratio > 0.35 && tput_ratio < 0.7,
                 std::string{figure} +
                     ": C-Clone peak throughput ~ half of NetClone "
                     "(measured ratio " +
                     std::to_string(tput_ratio) + ")");
  }
  return check.report() ? 0 : 1;
}

}  // namespace netclone::bench

// Ablation: C-Clone with client-side cancellation of the slower duplicate.
// The paper (§2.2, citing LÆDGE) states that "canceling slower requests
// does not bring meaningful benefits" — this bench measures that claim:
// cancels only help when duplicates are still queued (mid/high load), and
// even then they cannot reclaim the work of duplicates already executing.
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Ablation: C-Clone +/- cancellation, Exp(25), 6 servers x "
              "16 workers\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig base =
      synthetic_cluster(factory, high_variability());
  base.scheme = harness::Scheme::kCClone;
  const double capacity =
      synthetic_capacity(base, 25.0, high_variability());
  const std::vector<double> loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};

  std::vector<harness::SweepPoint> plain;
  std::vector<harness::SweepPoint> with_cancel;
  for (const bool cancel : {false, true}) {
    harness::ClusterConfig cfg = base;
    cfg.client_template.cclone_cancel = cancel;
    auto points = harness::run_sweep(cfg, capacity, loads);
    harness::print_series(cancel ? "C-Clone + cancel" : "C-Clone", points);
    (cancel ? with_cancel : plain) = std::move(points);
  }

  harness::ShapeCheck check;
  // At low load duplicates never queue, so cancellation changes nothing.
  check.expect(std::abs(with_cancel[0].result.p99.us() -
                        plain[0].result.p99.us()) <
                   0.1 * plain[0].result.p99.us(),
               "low load: cancellation is a no-op");
  // Inside the sweet spot (well below the tipping point) duplicates never
  // queue long enough to be catchable: improvements are negligible — the
  // paper's cited finding that cancels bring no meaningful benefit where
  // C-Clone works at all.
  bool negligible_in_sweet_spot = true;
  for (std::size_t i = 0; i < 4; ++i) {  // loads 0.1-0.4
    negligible_in_sweet_spot =
        negligible_in_sweet_spot &&
        with_cancel[i].result.p99.us() >
            0.9 * plain[i].result.p99.us();
  }
  check.expect(negligible_in_sweet_spot,
               "within C-Clone's working range cancellation changes "
               "nothing (duplicates rarely queue)");
  // At the tipping point itself cancellation reclaims queued duplicates
  // and postpones the collapse (informational)...
  std::printf("\nat the 0.5 tipping point: p99 %.1f us -> %.1f us with "
              "cancellation (queued duplicates reclaimed)\n",
              plain[4].result.p99.us(), with_cancel[4].result.p99.us());
  // ...but it cannot restore the halved capacity: past the point both
  // variants collapse.
  check.expect(with_cancel[5].result.p99.us() >
                   5.0 * with_cancel[0].result.p99.us(),
               "beyond the tipping point cancellation cannot save "
               "C-Clone's halved capacity");
  return check.report() ? 0 : 1;
}

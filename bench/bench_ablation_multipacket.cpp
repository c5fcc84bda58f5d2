// Ablation: multi-packet messages (§3.7). Measures what fragmenting
// requests/responses costs and verifies the cloned-request table keeps
// whole-request cloning intact (every fragment of a cloned request is
// cloned, so the masking benefit is preserved).
#include <cstdio>

#include "bench_common.hpp"

using namespace netclone;
using namespace netclone::bench;

int main() {
  std::printf("Ablation: multi-packet requests/responses (§3.7), Exp(25), "
              "0.3 load\n");

  auto factory = std::make_shared<host::ExponentialWorkload>(25.0);
  harness::ClusterConfig base =
      synthetic_cluster(factory, high_variability());
  base.scheme = harness::Scheme::kNetClone;
  const double capacity =
      synthetic_capacity(base, 25.0, high_variability());
  base.offered_rps = 0.3 * capacity;

  struct Variant {
    const char* name;
    std::uint8_t req_frags;
    std::uint8_t resp_frags;
  };
  const std::vector<Variant> variants = {
      {"single-packet (paper default)", 1, 1},
      {"3-fragment requests", 3, 1},
      {"3-frag requests + 2-frag responses", 3, 2},
  };

  std::vector<double> p99s;
  std::vector<double> clone_rates;
  for (const Variant& v : variants) {
    harness::ClusterConfig cfg = base;
    if (v.req_frags > 1 || v.resp_frags > 1) {
      cfg.netclone.id_mode = core::RequestIdMode::kClientTuple;
      cfg.netclone.enable_multipacket = true;
      cfg.netclone.num_filter_tables = 4;
    }
    cfg.client_template.request_fragments = v.req_frags;
    cfg.server_template.response_fragments = v.resp_frags;
    harness::Experiment experiment{cfg};
    const auto result = experiment.run();
    const double clone_rate =
        static_cast<double>(result.cloned_requests) /
        static_cast<double>(std::max<std::uint64_t>(result.requests_sent,
                                                    1));
    p99s.push_back(result.p99.us());
    clone_rates.push_back(clone_rate);
    std::printf("  %-38s p99 %7.1f us  achieved %8.1f KRPS  cloned "
                "%4.1f%%  filtered %llu\n",
                v.name, result.p99.us(), result.achieved_rps / 1e3,
                clone_rate * 100.0,
                static_cast<unsigned long long>(result.filtered_responses));
  }

  harness::ShapeCheck check;
  check.expect(clone_rates[1] > 0.5 && clone_rates[2] > 0.5,
               "cloning stays active with fragmented messages");
  check.expect(p99s[1] < p99s[0] * 1.3 && p99s[2] < p99s[0] * 1.3,
               "fragmentation costs only per-packet overheads, not the "
               "cloning benefit");
  return check.report() ? 0 : 1;
}

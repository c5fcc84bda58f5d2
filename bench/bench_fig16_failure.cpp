// Figure 16: throughput timeline under a switch failure. The paper stops
// the Tofino at t=5 s and reactivates it at t=7 s; throughput returns once
// the switch is back (their extra ~3 s is Tofino boot time, which the paper
// attributes to the switch platform, not NetClone). Because NetClone keeps
// only soft state, recovery needs no reconciliation: the sequence number
// restarts and server states repopulate from the next responses.
//
// We run a scaled-down rack (lower rate, 25 one-second bins) so the 25 s
// timeline stays cheap to simulate. On top of the throughput shape the
// bench reports, from the cross-layer invariant auditor:
//   * recovery time — seconds from switch recovery until a bin regains
//     90% of the pre-failure throughput;
//   * lost requests — client-table entries still incomplete at the end
//     (retransmit budget exhausted during the outage);
//   * duplicated work — responses that reached a client beyond the first
//     plus duplicates the switch filter absorbed.
// A second, fault-free run produces the exact-digest keys the bench gate
// checks bit-for-bit (fig16_nofault_completed / fig16_nofault_digest);
// the faulted run's counters are reported for information. The control
// runs on its own thread while the faulted run proceeds: each experiment's
// testbed hands its own frame pool to its nodes, so the runs share none.
//
// Usage: bench_fig16_failure [output.json] (default: BENCH_fig16.json)
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "harness/invariants.hpp"

using namespace netclone;
using namespace netclone::bench;

namespace {

harness::ClusterConfig fig16_cluster() {
  auto factory = std::make_shared<host::ExponentialWorkload>(100.0);
  harness::ClusterConfig cfg =
      synthetic_cluster(factory, high_variability(), /*num_servers=*/4,
                        /*workers=*/4);
  cfg.scheme = harness::Scheme::kNetClone;
  cfg.offered_rps = 0.5 * synthetic_capacity(cfg, 100.0,
                                             high_variability());
  cfg.warmup = SimTime::zero();
  cfg.measure = SimTime::seconds(25);
  return cfg;
}

struct AuditCounters {
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t digest = 0;
};

AuditCounters collect_counters(const harness::Experiment& experiment) {
  AuditCounters c;
  for (const host::Client* client : experiment.clients()) {
    const host::Client::Audit audit = client->audit();
    c.completed += audit.completed_entries;
    c.lost += audit.incomplete_entries;
    c.duplicated += client->stats().redundant_responses;
  }
  c.duplicated +=
      experiment.netclone_program()->stats().filtered_responses;
  c.digest = harness::chaos_digest(experiment);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fig16.json";

  std::printf("Figure 16: performance under switch failures, Exp(100), "
              "fail @5s, recover @7s\n");

  harness::ClusterConfig cfg = fig16_cluster();
  const double capacity = cfg.offered_rps / 0.5;

  // Fault-free control run: its counters are bit-exact across machines
  // and anchor the bench gate's exact-digest mode.
  harness::InvariantReport clean_report;
  AuditCounters nofault;
  std::exception_ptr control_error;
  std::jthread control{[&] {
    try {
      harness::Experiment clean{fig16_cluster()};
      (void)clean.run_timeline(SimTime::seconds(25), SimTime::seconds(1));
      clean_report = harness::audit_invariants(clean);
      nofault = collect_counters(clean);
    } catch (...) {
      control_error = std::current_exception();
    }
  }};

  cfg.faults.events = {harness::parse_fault_entry("at=5s switch_fail sw0"),
                       harness::parse_fault_entry("at=7s switch_recover sw0")};
  harness::Experiment experiment{cfg};
  const auto bins =
      experiment.run_timeline(SimTime::seconds(25), SimTime::seconds(1));

  std::printf("\n== Fig 16 — completed requests per second ==\n");
  std::printf("  %5s %12s\n", "t(s)", "KRPS");
  for (std::size_t i = 0; i < bins.size(); ++i) {
    std::printf("  %5zu %12.1f\n", i + 1,
                static_cast<double>(bins[i]) / 1e3);
  }

  harness::ShapeCheck check;
  const double before = static_cast<double>(bins[3]);
  const double during = static_cast<double>(bins[5]);  // 5-6 s: down
  const double after = static_cast<double>(bins[9]);   // well past recovery
  check.expect(before > 0.45 * capacity,
               "healthy throughput before the failure");
  check.expect(during < 0.02 * before,
               "throughput collapses while the switch is down");
  check.expect(after > 0.9 * before,
               "throughput recovers to the pre-failure level");
  // Soft state only: cloning resumes after recovery.
  check.expect(experiment.netclone_program()->stats().cloned_requests > 0,
               "cloning active after soft-state wipe (no permanent "
               "misbehavior)");

  // Recovery time: the switch comes back at t=7s (bin index 7); count
  // whole bins until throughput regains 90% of the pre-failure level.
  std::uint64_t recovery_s = 0;
  for (std::size_t i = 7; i < bins.size(); ++i) {
    if (static_cast<double>(bins[i]) >= 0.9 * before) {
      recovery_s = i + 1 - 7;
      break;
    }
  }
  check.expect(recovery_s > 0, "throughput regains 90% after recovery");

  const harness::InvariantReport report =
      harness::audit_invariants(experiment);
  if (!report.ok()) {
    std::printf("%s", report.to_string().c_str());
  }
  check.expect(report.ok(), "invariant auditor clean after the outage");
  const AuditCounters faulted = collect_counters(experiment);

  std::printf("\nrecovery: %llu s to 90%% of pre-failure throughput\n",
              static_cast<unsigned long long>(recovery_s));
  std::printf("auditor: %llu completed, %llu lost, %llu duplicated "
              "(digest %016llx)\n",
              static_cast<unsigned long long>(faulted.completed),
              static_cast<unsigned long long>(faulted.lost),
              static_cast<unsigned long long>(faulted.duplicated),
              static_cast<unsigned long long>(faulted.digest));

  control.join();
  if (control_error) {
    std::rethrow_exception(control_error);
  }
  if (!clean_report.ok()) {
    std::printf("%s", clean_report.to_string().c_str());
  }
  check.expect(clean_report.ok(), "invariant auditor clean without "
                                  "faults");
  // run_timeline stops dead at t=25s with no drain, so a handful of
  // requests are legitimately still in flight; anything beyond that
  // would be real loss.
  check.expect(nofault.lost * 1000 < nofault.completed,
               "only an in-flight remainder outstanding without faults");
  std::printf("no-fault control: %llu completed, digest %016llx\n",
              static_cast<unsigned long long>(nofault.completed),
              static_cast<unsigned long long>(nofault.digest));

  const bool shape_ok = check.report();

  std::ofstream out{out_path};
  out << "{\n"
      << "  \"bench\": \"fig16_failure\",\n"
      << "  \"unit\": \"requests\",\n"
      << "  \"fig16_recovery_seconds\": " << recovery_s << ",\n"
      << "  \"fig16_completed\": " << faulted.completed << ",\n"
      << "  \"fig16_lost_requests\": " << faulted.lost << ",\n"
      << "  \"fig16_duplicated_responses\": " << faulted.duplicated
      << ",\n"
      << "  \"fig16_nofault_completed\": " << nofault.completed << ",\n"
      << "  \"fig16_nofault_digest\": " << nofault.digest << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return shape_ok ? 0 : 1;
}

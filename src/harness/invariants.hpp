// Cross-layer invariant auditor for chaos runs.
//
// After a run — clean or faulted — the cluster must satisfy a set of
// conservation laws no fault is allowed to break:
//
//   * client accounting: every issued request is completed exactly once
//     or still recorded incomplete (failed/cancelled), never silently
//     lost or double-counted;
//   * server structure: a crashed server holds no queue or busy workers;
//   * link occupancy: drop-tail slots never exceed capacity, and a down
//     link holds no in-flight frames;
//   * switch conservation (per switch): every received frame lands in
//     exactly one of {parse error, program drop, dropped-while-failed,
//     scheduled egress}, and emissions never exceed scheduled egresses
//     plus multicast copies;
//   * filter accounting (every NetClone program: a ToR, or a replica of
//     the aggregation tier): filter hits never exceed the fingerprints
//     stored, injected as stale entries, or adopted from a resync, and
//     responses filtered never exceed filter hits;
//   * frame-pool balance: acquire/release/live counters stay consistent
//     (the zero-leak check across an Experiment's lifetime lives in the
//     tests, which compare pool `live` before construction and after
//     destruction);
//   * replica convergence (replicated multi-rack aggregation): once the
//     fabric has quiesced cleanly, every chain replica must hold the
//     identical StateT/ShadowT/FilterT image and have applied the same
//     response stream — the NetChain-style state-machine-replication
//     contract.
//
// chaos_digest() folds the engine's event count and every stats counter
// into one value: two same-seed runs must produce identical digests —
// the determinism half of the chaos-sweep contract.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace netclone::harness {

class Experiment;
class MultiRackExperiment;

struct InvariantReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// All violations joined with newlines ("" when ok).
  [[nodiscard]] std::string to_string() const;
};

/// Runs every invariant check against a finished (or quiesced) run.
[[nodiscard]] InvariantReport audit_invariants(const Experiment& exp);
[[nodiscard]] InvariantReport audit_invariants(const MultiRackExperiment& exp);

/// Deterministic fingerprint of a run: FNV-1a over the executed event
/// count and all client/server/switch/link/program counters.
[[nodiscard]] std::uint64_t chaos_digest(const Experiment& exp);
[[nodiscard]] std::uint64_t chaos_digest(const MultiRackExperiment& exp);

}  // namespace netclone::harness

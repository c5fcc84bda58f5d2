// Timed fault plans — the scenario-level face of the chaos layer.
//
// A FaultPlan is a list of timed entries parsed from scenario config
// lines such as:
//
//     at=2s    link_down      sw0-s3
//     at=3s    corrupt_rate   sw0-s1  1e-4
//     at=3500us reorder_rate  c0-sw0  0.01
//     at=4s    server_crash   s2
//     at=4.5s  server_restart s2
//     at=5s    switch_wipe    sw0
//     at=6s    filter_stale   sw0     0 12345
//
// Operand ranges, checked at parse time:
//   * at=<time>: finite, >= 0, and below 2^63 ns once scaled by its unit
//     (ns, us, ms, s);
//   * drop_rate / corrupt_rate / reorder_rate / duplicate_rate: a finite
//     probability in [0, 1];
//   * server_slowdown: a finite factor > 0;
//   * filter_stale <table> <req_id>: plain decimal integers, with
//     1 <= req_id <= 2^32 - 1 (the header's REQ_ID width);
//   * the indexed targets of server_* (`s<N>`), agg_fail/agg_rejoin
//     (`agg<N>`) and rack_down/rack_up (`rack<N>`): N is the whole rest
//     of the target, in plain decimal digits.
//
// Targets use the harness's node names: clients `c<N>`, servers `s<N>`,
// the ToR switch `sw0`, the LÆDGE coordinator `co0`. A link target is
// `<src>-<dst>` for the directed src→dst link. Both harnesses resolve
// names in one place (Testbed::apply_fault), exactly: a link or switch
// must be registered under that name, and the N of `s<N>`, `agg<N>` and
// `rack<N>` must be the whole rest of the target. Every entry is
// scheduled as an event on the run's sim::Simulator, so fault firing
// obeys the same deterministic event order as everything else.
//
// Multi-rack plans address fat-tree entities through the same grammar:
// switches `tor1` (client ToR), `tor2`.. (server-rack ToRs), `agg0`..
// (chain replicas); links by endpoint pair (`tor1-agg0`, `agg0-agg1`,
// `tor2-s0`); whole racks via
//
//     at=2ms  rack_down  rack0          # every trunk of server rack 0
//     at=4ms  rack_up    rack0
//
// and the managed chain fail-over pair
//
//     at=2ms  agg_fail    agg1          # crash + chain splice + resync
//     at=5ms  agg_rejoin  agg1          # recover + snapshot + re-admit
//
// agg_fail/agg_rejoin are schedule-managed: installing the plan expands
// each into the crash/recover event plus the delayed reconcile-marker
// and spray-readmission events.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace netclone::harness {

/// Thrown on malformed fault entries (unknown action, bad time suffix,
/// missing or extra operands, operands out of range).
class FaultPlanError : public std::runtime_error {
 public:
  explicit FaultPlanError(const std::string& what)
      : std::runtime_error(what) {}
};

enum class FaultAction {
  // phys: administrative state and probabilistic impairments of one
  // directed link. Rate actions merge into the link's impairment config.
  kLinkDown,
  kLinkUp,
  kDropRate,
  kCorruptRate,
  kReorderRate,
  kDuplicateRate,
  // host: server process faults.
  kServerCrash,
  kServerRestart,
  kServerPause,
  kServerResume,
  kServerSlowdown,
  // pisa/core: switch faults.
  kSwitchFail,
  kSwitchRecover,
  kSwitchWipe,
  kFilterStale,
  // harness/multirack: managed chain-replica fail-over (crash + splice +
  // resync + re-admission) and administrative rack isolation.
  kAggFail,
  kAggRejoin,
  kRackDown,
  kRackUp,
};

[[nodiscard]] const char* fault_action_name(FaultAction action);

struct FaultEvent {
  SimTime at{};
  FaultAction action{};
  /// Link name (`c0-sw0`), server name (`s2`), switch name (`sw0`), or
  /// fat-tree unit (`agg1`, `rack0`).
  std::string target{};
  /// Rate (impairments), slowdown factor, or the request id to plant
  /// (filter_stale).
  double value = 0.0;
  /// filter_stale only: which filter table receives the entry.
  std::size_t table = 0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// The N of an indexed target `<prefix><N>` (`s3`, `agg1`, `rack0`):
/// nullopt unless the rest of `target` is one whole decimal number that
/// fits std::size_t.
[[nodiscard]] std::optional<std::size_t> target_index(
    std::string_view target, std::string_view prefix);

/// Parses one timed entry (`at=<time><unit> <action> <target> [args]`).
/// Accepted time units: ns, us, ms, s.
[[nodiscard]] FaultEvent parse_fault_entry(const std::string& line);

/// Parses a whole plan: one entry per line, `#` comments and blank lines
/// allowed. Errors carry `<source>: line <N>:` diagnostics (the source
/// prefix is omitted when `source` is empty) in front of the offending
/// entry and key, matching the scenario parser's file/line/key style.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& text,
                                         const std::string& source = "");

}  // namespace netclone::harness

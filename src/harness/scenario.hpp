// Text-file experiment scenarios and the CLI front end's engine.
//
// A scenario is a flat `key = value` file (# comments allowed) describing
// one cluster + workload + sweep, e.g.:
//
//     scheme     = netclone        # baseline | cclone | laedge | netclone |
//                                  # netclone-nofilter | racksched |
//                                  # netclone-racksched
//     servers    = 6
//     workers    = 16
//     clients    = 2
//     workload   = exp             # exp | bimodal | fixed | redis | memcached
//     mean_us    = 25
//     jitter_p   = 0.01
//     loads      = 0.1,0.3,0.5,0.7,0.9
//     measure_ms = 25
//     csv        = sweep.csv       # optional CSV export
//
// Setting `racks >= 1` switches the run onto the multi-rack fat-tree
// harness (MultiRackExperiment): `servers_per_rack`, `aggs`, and
// `agg_mode` shape the pod. The traffic-shape generator keys (`shape`,
// `skew`, `hotspot_rack`, ...) compile production traffic patterns into
// plain client parameters and work with every scheme and harness.
//
// Integer keys take plain decimal digits (no sign, fraction, or
// exponent). parse_scenario() validates keys and values; Scenario::run()
// executes the sweep and prints the standard series table.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/multirack.hpp"
#include "harness/report.hpp"

namespace netclone::harness {

/// Thrown on unknown keys, malformed values, or inconsistent settings.
/// The message always carries a `line N:` prefix for parse problems (and
/// a `<path>:` prefix when the scenario came from a file).
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& what)
      : std::runtime_error(what) {}
};

struct Scenario {
  Scheme scheme = Scheme::kNetClone;
  std::size_t servers = 6;
  std::uint32_t workers = 16;
  std::size_t clients = 2;
  std::string workload = "exp";
  double mean_us = 25.0;
  double bimodal_short_us = 25.0;
  double bimodal_long_us = 250.0;
  double bimodal_short_fraction = 0.9;
  double get_fraction = 0.99;   // kv workloads
  std::uint64_t kv_objects = 100000;
  double jitter_p = 0.01;
  double jitter_multiplier = 15.0;
  double noise = 0.08;
  std::vector<double> loads = {0.1, 0.3, 0.5, 0.7, 0.9};
  double measure_ms = 25.0;
  double warmup_ms = 5.0;
  std::uint64_t seed = 1;
  std::optional<std::string> csv_path{};
  std::string title = "scenario";
  /// Timed fault entries from repeatable `fault =` lines, e.g.
  /// `fault = at=2s link_down sw0-s3`. Parsed (and validated) at
  /// scenario-parse time. Single-rack runs resolve sw0/c<N>/s<N> names;
  /// fat-tree runs (racks >= 1) resolve tor/agg/rack names, including
  /// the managed `agg_fail`/`agg_rejoin` chain fail-over pair.
  FaultPlan faults{};

  // -- multi-rack fat tree (racks >= 1 selects MultiRackExperiment) -------
  std::size_t racks = 0;          // server racks; 0 = classic single rack
  std::size_t servers_per_rack = 3;
  std::size_t aggs = 1;           // parallel aggregation switches
  std::string agg_mode = "oblivious";  // oblivious | replicated

  // -- production traffic shapes ------------------------------------------
  std::string shape = "steady";   // steady | flash | diurnal
  double flash_at_ms = 10.0;
  double flash_len_ms = 5.0;
  double flash_x = 4.0;           // rate multiplier during the crowd
  double diurnal_period_ms = 20.0;
  double diurnal_min = 0.25;      // trough multiplier
  double skew = 0.0;              // Zipf exponent over candidate groups
  std::optional<std::size_t> hotspot_rack{};  // multi-rack only
  double hotspot_share = 0.5;     // draw mass on the hot rack's groups

  /// Builds the base cluster configuration (offered_rps left at 0; run()
  /// fills it per load point) plus the capacity estimate.
  [[nodiscard]] ClusterConfig build_config() const;
  /// The fat-tree equivalent, valid when racks >= 1.
  [[nodiscard]] MultiRackConfig build_multirack_config() const;
  [[nodiscard]] double capacity_rps() const;
  /// Total worker hosts (racks * servers_per_rack in fat-tree mode).
  [[nodiscard]] std::size_t total_servers() const;

  /// Runs the sweep, prints the series, optionally writes CSV.
  std::vector<SweepPoint> run() const;
};

/// Parses `key = value` text into a Scenario. Unknown keys and malformed
/// values raise ScenarioError with a line reference.
[[nodiscard]] Scenario parse_scenario(const std::string& text);

/// Reads and parses a scenario file, then each `key=value` override as one
/// more line after the file's (later keys win). Parse errors are re-raised
/// with the path prefixed, so `file.cfg: line 3: ...` points at the exact
/// spot; with overrides the prefix is `file.cfg + overrides: `, and line
/// numbers past the file's count the overrides.
[[nodiscard]] Scenario load_scenario_file(
    const std::string& path, const std::vector<std::string>& overrides = {});

/// A template scenario file with every supported key.
[[nodiscard]] std::string default_scenario_text();

/// Parses a scheme name ("netclone", "c-clone", ...); throws on unknown.
[[nodiscard]] Scheme parse_scheme(const std::string& name);

}  // namespace netclone::harness

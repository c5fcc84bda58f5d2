// One rep of one end-to-end benchmark workload, printed as a JSON line.
//
//   netclone_bench --workload <name> --seed <n> [--scale <f>] [--trace <dir>]
//   netclone_bench --info
//
// A rep builds the workload's inputs and cluster (set-up), runs it, audits
// the cluster's invariants and digests the simulated results. With
// --trace it also decorates the factory and service, measures each
// layer's unit cost by replay, reports the per-layer breakdown, and
// writes <dir>/trace-<workload>.json. --info prints how this binary was
// built. benchmark/run.py drives this binary; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "replays.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

using namespace netclone::benchmark;

namespace {

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/// Minimal JSON object writer: keys in insertion order, doubles with all
/// their digits.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    return raw(key, buf);
  }
  JsonObject& num(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, quote(value));
  }
  JsonObject& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += quote(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string str() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

  static std::string quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

double mean_ns(const SpanRecorder::Totals& t) {
  return ratio(t.ns, t.calls);
}

/// The traced rep's per-layer breakdown (names as in BENCHMARK.json).
std::string layer_metrics(const RepOut& rep, const SpanRecorder& recorder) {
  const LayerCounts& c = rep.counts;
  const UnitCosts u = measure_unit_costs();

  const SpanRecorder::Totals& get = recorder.totals(Site::kExecGet);
  const SpanRecorder::Totals& scan = recorder.totals(Site::kExecScan);
  const SpanRecorder::Totals& set = recorder.totals(Site::kExecSet);
  const std::uint64_t kv_ops = get.calls + scan.calls + set.calls;
  // Workloads without KV traffic leave the store idle; their kv figures
  // come from a replay so every workload reports the layer.
  const KvCosts kv = kv_ops > 0 ? KvCosts{mean_ns(get), mean_ns(scan),
                                          mean_ns(set), rep.populate_s}
                                : measure_kv_costs();

  const double requests = static_cast<double>(c.requests_sent);
  const double sim_est = static_cast<double>(c.events) *
                         u.sim_ns_per_event / 1e9;
  const double phys_est = static_cast<double>(c.link_frames) *
                          u.phys_ns_per_frame / 1e9;
  const double pisa_est = static_cast<double>(c.switch_passes) *
                          u.pisa_ns_per_pass / 1e9;
  const double host_est = static_cast<double>(c.server_rx_requests) *
                          u.host_server_ns_per_request / 1e9;
  const double decorated = recorder.decorated_s();

  JsonObject m;
  m.num("sim.events", c.events)
      .num("sim.events_per_request", static_cast<double>(c.events) / requests)
      .num("sim.ns_per_event", u.sim_ns_per_event)
      .num("sim.est_s", sim_est)
      .num("phys.frames_per_request",
           static_cast<double>(c.link_frames) / requests)
      .num("phys.drops", c.link_drops)
      .num("phys.ns_per_frame", u.phys_ns_per_frame)
      .num("phys.est_s", phys_est)
      .num("wire.pool_acquires_per_request",
           static_cast<double>(c.pool_acquires) / requests)
      .num("wire.ns_per_parse", u.wire_ns_per_parse)
      .num("pisa.passes_per_request",
           static_cast<double>(c.switch_passes) / requests)
      .num("pisa.recirc_frac", ratio(c.recirculated, c.switch_passes))
      .num("pisa.ns_per_pass", u.pisa_ns_per_pass)
      .num("pisa.est_s", pisa_est)
      .num("core.clone_frac", ratio(c.cloned, c.requests_sent))
      .num("core.filter_frac", ratio(c.filtered, c.server_responses))
      .num("core.write_frac", ratio(c.write_requests, c.requests_sent))
      .num("core.chain_forwards_per_response",
           ratio(c.chain_forwards, c.server_responses))
      .num("host.make_ns", mean_ns(recorder.totals(Site::kMake)))
      .num("host.exec_time_ns", mean_ns(recorder.totals(Site::kExecTime)))
      .num("host.server_ns_per_request", u.host_server_ns_per_request)
      .num("host.est_s", host_est)
      .num("host.wasted_exec_frac",
           ratio(c.server_executions - std::min(c.server_executions,
                                                c.client_completed),
                 c.server_executions))
      .num("host.client_table_entries", c.client_table_entries)
      .num("kv.get_ns", kv.get_ns)
      .num("kv.scan_ns", kv.scan_ns)
      .num("kv.set_ns", kv.set_ns)
      .num("kv.ops", kv_ops)
      .num("kv.populate_s", kv.populate_s)
      .num("harness.build_s", rep.build_s)
      .num("harness.run_s", rep.run_s)
      .num("harness.audit_s", rep.audit_s)
      .num("harness.per_point_s",
           rep.wall_s / static_cast<double>(rep.points.size()))
      .num("decorated_s", decorated)
      .num("unattributed_s",
           rep.run_s - sim_est - phys_est - pisa_est - host_est - decorated);
  return m.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: netclone_bench --workload <name> --seed <n> "
               "[--scale <f>] [--trace <dir>]\n"
               "       netclone_bench --info\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RepOptions options;
  std::string trace_dir;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--info") {
      JsonObject info;
      info.str("build_type", NETCLONE_BENCH_BUILD_TYPE)
          .str("sanitize", NETCLONE_BENCH_SANITIZE)
          .str("compiler", __VERSION__)
          .boolean("ndebug", kNdebug);
      std::printf("%s\n", info.str().c_str());
      return 0;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) {
        std::fprintf(stderr, "unknown workload: %s\n", value);
        return 2;
      }
      options.workload = *workload;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--scale") {
      options.scale = std::strtod(value, nullptr);
      if (!(options.scale > 0.0 && options.scale <= 1.0)) {
        std::fprintf(stderr, "--scale must be in (0, 1]\n");
        return 2;
      }
    } else if (arg == "--trace") {
      trace_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload) {
    return usage();
  }

  SpanRecorder recorder;
  if (!trace_dir.empty()) {
    options.recorder = &recorder;
  }
  const RepOut rep = run_rep(options);

  JsonObject sim;
  sim.num("p50_us", rep.p50_us)
      .num("p99_us", rep.p99_us)
      .num("p999_us", rep.p999_us)
      .num("goodput_krps", rep.goodput_krps);
  std::string points = "[";
  for (const PointOut& p : rep.points) {
    JsonObject point;
    point.num("load", p.load_fraction)
        .num("goodput_krps", p.result.achieved_rps / 1e3)
        .num("p50_us", p.result.p50.us())
        .num("p99_us", p.result.p99.us())
        .num("p999_us", p.result.p999.us())
        .num("completed", p.result.completed);
    points += (points.size() > 1 ? ", " : "") + point.str();
  }
  points += "]";
  std::string violations = "[";
  for (const std::string& v : rep.violations) {
    violations += (violations.size() > 1 ? ", " : "") + JsonObject::quote(v);
  }
  violations += "]";
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(rep.digest));

  JsonObject out;
  out.str("workload", workload_name(options.workload))
      .num("seed", options.seed)
      .num("scale", options.scale)
      .boolean("traced", options.recorder != nullptr)
      .num("setup_s", rep.setup_s)
      .num("wall_s", rep.wall_s)
      .num("audit_s", rep.audit_s)
      .num("issued", rep.issued)
      .num("incomplete", rep.incomplete)
      .num("audited_points", static_cast<std::uint64_t>(rep.audited_points))
      .raw("violations", violations)
      .str("digest", digest)
      .raw("sim", sim.str())
      .raw("points", points);
  if (options.recorder != nullptr) {
    out.raw("layers", layer_metrics(rep, recorder));
    const std::string path = trace_dir + "/trace-" +
                             workload_name(options.workload) + ".json";
    if (!recorder.write_chrome_trace(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out.str("trace_file", path);
  }
  // The peak over the whole process: set-up, run, audit (and replays).
  out.num("peak_rss_mib", peak_rss_mib());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

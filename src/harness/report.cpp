#include "harness/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>

#include "common/logging.hpp"
#include "common/parallel.hpp"

namespace netclone::harness {

namespace {

/// The one sweep driver, for Experiment and MultiRackExperiment. Points
/// run through parallel_for and write only their own slot; results are
/// collected after it returns, in point order.
template <typename Exp, typename Config>
std::vector<SweepPoint> sweep(const Config& base, double capacity_rps,
                              const std::vector<double>& loads) {
  struct Slot {
    SweepPoint point;
    std::exception_ptr error;
  };
  const std::size_t n = loads.size();
  std::vector<Slot> slots(n);
  // Heaviest load first: the longest points start earliest, so the last
  // ones to finish are short.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return loads[a] > loads[b];
                   });
  // Each point keeps its own error, so the one rethrown is the lowest
  // failing point's, not the heaviest failing load's.
  parallel_for(n, [&](std::size_t i) {
    const std::size_t k = order[i];
    Slot& slot = slots[k];
    try {
      Config cfg = base;
      cfg.offered_rps = capacity_rps * loads[k];
      cfg.seed = base.seed + 1000 * (k + 1);
      Exp experiment{std::move(cfg)};
      slot.point = SweepPoint{loads[k], experiment.run()};
    } catch (...) {
      slot.error = std::current_exception();
    }
  });

  std::vector<SweepPoint> points;
  points.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    if (slots[k].error) {
      std::rethrow_exception(slots[k].error);
    }
    points.push_back(std::move(slots[k].point));
  }
  return points;
}

}  // namespace

std::vector<double> default_load_points() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

std::vector<SweepPoint> run_sweep(const ClusterConfig& base,
                                  double capacity_rps,
                                  const std::vector<double>& load_fractions) {
  return sweep<Experiment>(base, capacity_rps, load_fractions);
}

std::vector<SweepPoint> run_sweep(const MultiRackConfig& base,
                                  double capacity_rps,
                                  const std::vector<double>& load_fractions) {
  return sweep<MultiRackExperiment>(base, capacity_rps, load_fractions);
}

void print_series(const std::string& title,
                  const std::vector<SweepPoint>& points) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf(
      "  %-19s %6s %10s %9s %9s %9s %8s %9s %9s\n", "scheme", "load",
      "KRPS", "p50(us)", "p99(us)", "p999(us)", "mean(us)", "cloned%",
      "filtered");
  for (const SweepPoint& p : points) {
    const ExperimentResult& r = p.result;
    const double cloned_pct =
        r.requests_sent == 0
            ? 0.0
            : 100.0 * static_cast<double>(r.cloned_requests) /
                  static_cast<double>(r.requests_sent);
    std::printf(
        "  %-19s %5.2f %10.1f %9.1f %9.1f %9.1f %8.1f %8.1f%% %9llu\n",
        scheme_name(r.scheme), p.load_fraction, r.achieved_rps / 1e3,
        r.p50.us(), r.p99.us(), r.p999.us(), r.mean_us, cloned_pct,
        static_cast<unsigned long long>(r.filtered_responses));
  }
}

void ShapeCheck::expect(bool condition, const std::string& label) {
  entries_.push_back(Entry{condition, label});
}

bool ShapeCheck::report() const {
  bool all_ok = true;
  std::printf("\nSHAPE-CHECK:\n");
  for (const Entry& e : entries_) {
    std::printf("  [%s] %s\n", e.ok ? "ok" : "MISS", e.label.c_str());
    all_ok = all_ok && e.ok;
  }
  std::printf("SHAPE-CHECK verdict: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok;
}

bool write_csv(const std::string& path,
               const std::vector<SweepPoint>& points) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    log_warn("cannot open CSV file: " + path);
    return false;
  }
  std::fprintf(file,
               "scheme,load_fraction,offered_rps,achieved_rps,p50_us,"
               "p99_us,p999_us,mean_us,requests_sent,completed,"
               "cloned_requests,filtered_responses,redundant_responses,"
               "dropped_stale_clones,empty_queue_fraction\n");
  for (const SweepPoint& p : points) {
    const ExperimentResult& r = p.result;
    std::fprintf(
        file,
        "%s,%.3f,%.1f,%.1f,%.3f,%.3f,%.3f,%.3f,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%.5f\n",
        scheme_name(r.scheme), p.load_fraction, r.offered_rps,
        r.achieved_rps, r.p50.us(), r.p99.us(), r.p999.us(), r.mean_us,
        static_cast<unsigned long long>(r.requests_sent),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.cloned_requests),
        static_cast<unsigned long long>(r.filtered_responses),
        static_cast<unsigned long long>(r.redundant_responses),
        static_cast<unsigned long long>(r.dropped_stale_clones),
        r.empty_queue_fraction);
  }
  std::fclose(file);
  return true;
}

double bench_scale() {
  static const double scale = [] {
    const char* env = std::getenv("NETCLONE_BENCH_SCALE");
    if (env == nullptr) {
      return 1.0;
    }
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

SimTime scaled(SimTime t) {
  return SimTime::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(t.ns()) * bench_scale()));
}

double best_p99_improvement(const std::vector<SweepPoint>& a,
                            const std::vector<SweepPoint>& b) {
  double best = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double pa = a[i].result.p99.us();
    const double pb = b[i].result.p99.us();
    if (pa > 0.0 && pb > 0.0) {
      best = std::max(best, pa / pb);
    }
  }
  return best;
}

double peak_throughput(const std::vector<SweepPoint>& points) {
  double best = 0.0;
  for (const SweepPoint& p : points) {
    best = std::max(best, p.result.achieved_rps);
  }
  return best;
}

}  // namespace netclone::harness

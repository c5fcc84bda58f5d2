// Outside-in tracing for the benchmark's traced rep.
//
// The simulator is never modified: the benchmark wraps the RequestFactory
// and ServiceModel it injects through the cluster config in timing
// decorators, and brackets its own phases (setup, run, audit). Every call
// is counted exactly with its total time; one call in 1024 per site is
// kept as a span (name, start, end, parent phase) in memory and written
// out at exit as Chrome trace-event JSON. Untraced reps use the plain
// factory and service and pay nothing.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "host/service.hpp"
#include "host/workload.hpp"

namespace netclone::benchmark {

using Clock = std::chrono::steady_clock;

/// The decorated call sites. execute() is split by RPC op so the KV
/// store's GET/SCAN/SET costs read separately.
enum class Site : std::size_t {
  kMake,        // RequestFactory::make
  kExecTime,    // ServiceModel::execution_time
  kExecOther,   // ServiceModel::execute, synthetic RPCs
  kExecGet,     // ServiceModel::execute, KV GET
  kExecScan,    // ServiceModel::execute, KV SCAN
  kExecSet,     // ServiceModel::execute, KV SET
  kCount,
};

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };

  /// One call in kSampleEvery per site becomes a span.
  static constexpr std::uint64_t kSampleEvery = 1024;

  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a phase span; sampled call spans recorded while it is open
  /// name it as their parent. Phases do not nest.
  void begin_phase(const char* name);
  void end_phase();

  /// Counts one decorated call and samples it as a span.
  void record(Site site, Clock::time_point start, Clock::time_point end) {
    Totals& t = totals_[static_cast<std::size_t>(site)];
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    t.ns += ns;
    if (t.calls++ % kSampleEvery == 0) {
      sample(site, start, end);
    }
  }

  [[nodiscard]] const Totals& totals(Site site) const {
    return totals_[static_cast<std::size_t>(site)];
  }
  /// Total time inside every decorated call.
  [[nodiscard]] double decorated_s() const;

  /// Writes all spans as Chrome trace-event JSON ("X" events, µs).
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = none
  };

  void sample(Site site, Clock::time_point start, Clock::time_point end);
  [[nodiscard]] std::int64_t since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::array<Totals, static_cast<std::size_t>(Site::kCount)> totals_{};
  std::vector<Span> spans_;
  std::size_t open_phase_ = 0;  // index + 1 into spans_, 0 = none
};

/// RequestFactory decorator timing every make().
class TimedFactory final : public host::RequestFactory {
 public:
  TimedFactory(std::shared_ptr<host::RequestFactory> inner,
               SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] wire::RpcRequest make(Rng& rng) override;
  [[nodiscard]] double mean_intrinsic_us() const override {
    return inner_->mean_intrinsic_us();
  }
  [[nodiscard]] std::string label() const override { return inner_->label(); }

 private:
  std::shared_ptr<host::RequestFactory> inner_;
  SpanRecorder& recorder_;
};

/// ServiceModel decorator timing execution_time() and, split by op,
/// execute().
class TimedService final : public host::ServiceModel {
 public:
  TimedService(std::shared_ptr<host::ServiceModel> inner,
               SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] SimTime execution_time(const wire::RpcRequest& req,
                                       Rng& rng) override;
  [[nodiscard]] wire::RpcResponse execute(
      const wire::RpcRequest& req) override;

 private:
  std::shared_ptr<host::ServiceModel> inner_;
  SpanRecorder& recorder_;
};

}  // namespace netclone::benchmark

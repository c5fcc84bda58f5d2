// Log-linear latency histogram (HdrHistogram-style).
//
// Latency distributions in this system span ~100 ns (switch pass) to ~100 ms
// (deep queues at saturation), so a fixed-width histogram is useless. We use
// 64 linear sub-buckets per octave, which bounds the relative quantile error
// at 1/64 (~1.6%) at any magnitude while keeping record() to a handful of
// bit operations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace netclone {

class LatencyHistogram {
 public:
  /// Reserves the buckets of the whole range (every non-negative
  /// nanosecond count, about 29 KiB) once, so record() never reallocates;
  /// the vector itself grows only to the largest bucket used.
  LatencyHistogram();

  /// Records one latency sample. Negative durations are clamped to zero
  /// (they cannot occur in a causally-correct simulation; the clamp keeps
  /// the histogram total consistent if a caller misuses it).
  void record(SimTime latency);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] SimTime min() const;
  [[nodiscard]] SimTime max() const { return SimTime{max_}; }
  [[nodiscard]] double mean_ns() const;

  /// Value at quantile q in [0, 1]; q=0.99 is the paper's headline metric.
  /// Returns zero when the histogram is empty.
  [[nodiscard]] SimTime percentile(double q) const;

  [[nodiscard]] SimTime p50() const { return percentile(0.50); }
  [[nodiscard]] SimTime p99() const { return percentile(0.99); }
  [[nodiscard]] SimTime p999() const { return percentile(0.999); }

  /// Adds all samples of `other` into this histogram.
  void merge(const LatencyHistogram& other);

  void reset();

 private:
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v);
  [[nodiscard]] static std::uint64_t bucket_midpoint(std::size_t idx);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace netclone

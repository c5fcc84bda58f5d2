#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace netclone {

LatencyHistogram::LatencyHistogram() {
  buckets_.reserve(
      bucket_index(std::numeric_limits<std::int64_t>::max()) + 1);
}

std::size_t LatencyHistogram::bucket_index(std::uint64_t v) {
  if (v < 128) {
    return static_cast<std::size_t>(v);
  }
  const int shift = static_cast<int>(std::bit_width(v)) - 7;
  const std::uint64_t sub = v >> shift;  // in [64, 127]
  return static_cast<std::size_t>(64 * static_cast<std::uint64_t>(shift) +
                                  sub);
}

std::uint64_t LatencyHistogram::bucket_midpoint(std::size_t idx) {
  if (idx < 128) {
    return idx;
  }
  const auto shift = static_cast<int>(idx / 64 - 1);
  const std::uint64_t sub = 64 + idx % 64;
  const std::uint64_t lo = sub << shift;
  const std::uint64_t width = std::uint64_t{1} << shift;
  return lo + width / 2;
}

void LatencyHistogram::record(SimTime latency) {
  const std::int64_t raw = std::max<std::int64_t>(latency.ns(), 0);
  const auto v = static_cast<std::uint64_t>(raw);
  const std::size_t idx = bucket_index(v);
  if (idx >= buckets_.size()) {
    buckets_.resize(idx + 1, 0);
  }
  ++buckets_[idx];
  if (count_ == 0) {
    min_ = raw;
    max_ = raw;
  } else {
    min_ = std::min(min_, raw);
    max_ = std::max(max_, raw);
  }
  ++count_;
  const auto d = static_cast<double>(raw);
  sum_ += d;
  sum_sq_ += d * d;
}

SimTime LatencyHistogram::min() const {
  return count_ == 0 ? SimTime::zero() : SimTime{min_};
}

double LatencyHistogram::mean_ns() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LatencyHistogram::stddev_ns() const {
  if (count_ < 2) {
    return 0.0;
  }
  const double n = static_cast<double>(count_);
  const double mean = sum_ / n;
  const double var = std::max(0.0, sum_sq_ / n - mean * mean);
  return std::sqrt(var);
}

SimTime LatencyHistogram::percentile(double q) const {
  if (count_ == 0) {
    return SimTime::zero();
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based; q=1 must land on the last sample.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return SimTime{static_cast<std::int64_t>(
          std::min<std::uint64_t>(bucket_midpoint(i),
                                  static_cast<std::uint64_t>(max_)))};
    }
  }
  return SimTime{max_};
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

void LatencyHistogram::reset() {
  buckets_.clear();
  count_ = 0;
  min_ = 0;
  max_ = 0;
  sum_ = 0.0;
  sum_sq_ = 0.0;
}

}  // namespace netclone

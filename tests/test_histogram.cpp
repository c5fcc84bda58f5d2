#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace netclone {
namespace {

TEST(Histogram, EmptyBehaviour) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.percentile(0.99).ns(), 0);
  EXPECT_EQ(h.min().ns(), 0);
  EXPECT_EQ(h.max().ns(), 0);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
}

TEST(Histogram, SingleSample) {
  LatencyHistogram h;
  h.record(SimTime::microseconds(25.0));
  EXPECT_EQ(h.count(), 1U);
  EXPECT_EQ(h.min().ns(), 25000);
  EXPECT_EQ(h.max().ns(), 25000);
  // A 25 us value sits in a bucket whose width is <= 1/64 of its magnitude.
  EXPECT_NEAR(static_cast<double>(h.p50().ns()), 25000.0, 25000.0 / 64.0);
  EXPECT_NEAR(h.mean_ns(), 25000.0, 1e-9);
}

TEST(Histogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) {
    h.record(SimTime::nanoseconds(i));
  }
  // Values below 128 ns land in exact single-value buckets.
  EXPECT_EQ(h.percentile(0.50).ns(), 50);
  EXPECT_EQ(h.percentile(0.99).ns(), 99);
  EXPECT_EQ(h.percentile(1.0).ns(), 100);
  EXPECT_EQ(h.percentile(0.0).ns(), 1);
}

TEST(Histogram, NegativeClampsToZero) {
  LatencyHistogram h;
  h.record(SimTime::nanoseconds(-5));
  EXPECT_EQ(h.count(), 1U);
  EXPECT_EQ(h.max().ns(), 0);
}

TEST(Histogram, PercentileMonotone) {
  LatencyHistogram h;
  Rng rng{1};
  for (int i = 0; i < 10000; ++i) {
    h.record(SimTime::nanoseconds(
        static_cast<std::int64_t>(rng.exponential(50000.0))));
  }
  SimTime prev = SimTime::zero();
  for (double q = 0.0; q <= 1.0001; q += 0.05) {
    const SimTime v = h.percentile(std::min(q, 1.0));
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_LE(h.percentile(1.0), h.max());
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram combined;
  Rng rng{2};
  for (int i = 0; i < 5000; ++i) {
    const auto v = SimTime::nanoseconds(
        static_cast<std::int64_t>(rng.exponential(30000.0)));
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean_ns(), combined.mean_ns());
  EXPECT_EQ(a.p99(), combined.p99());
}

TEST(Histogram, MergeEmptyIsNoop) {
  LatencyHistogram a;
  a.record(SimTime::microseconds(1.0));
  LatencyHistogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1U);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1U);
  EXPECT_EQ(empty.min().ns(), 1000);
}

TEST(Histogram, ResetClearsEverything) {
  LatencyHistogram h;
  h.record(SimTime::microseconds(5.0));
  h.reset();
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.percentile(0.5).ns(), 0);
}

TEST(Histogram, MeanAndStddevMatchDirectComputation) {
  LatencyHistogram h;
  StreamingStats direct;
  Rng rng{3};
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.exponential(10000.0);
    h.record(SimTime::nanoseconds(static_cast<std::int64_t>(v)));
    direct.add(std::floor(v));
  }
  EXPECT_NEAR(h.mean_ns(), direct.mean(), 1.0);
}

// Property sweep: quantiles of the log-bucketed histogram stay within the
// 1/64 relative-error bound of exact order statistics, across distributions.
struct DistCase {
  const char* name;
  double mean_ns;
  bool heavy_tail;
};

class HistogramAccuracy : public ::testing::TestWithParam<DistCase> {};

TEST_P(HistogramAccuracy, QuantilesWithinRelativeBound) {
  const DistCase param = GetParam();
  LatencyHistogram h;
  std::vector<double> exact;
  Rng rng{99};
  for (int i = 0; i < 50000; ++i) {
    double v = rng.exponential(param.mean_ns);
    if (param.heavy_tail && rng.bernoulli(0.01)) {
      v *= 15.0;
    }
    exact.push_back(std::floor(v));
    h.record(SimTime::nanoseconds(static_cast<std::int64_t>(v)));
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double approx = static_cast<double>(h.percentile(q).ns());
    const double truth = exact_percentile(exact, q);
    EXPECT_NEAR(approx, truth, truth / 32.0 + 1.0)
        << param.name << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, HistogramAccuracy,
    ::testing::Values(DistCase{"exp25us", 25000.0, false},
                      DistCase{"exp500us", 500000.0, false},
                      DistCase{"exp25usJitter", 25000.0, true},
                      DistCase{"exp1ms", 1000000.0, true}),
    [](const ::testing::TestParamInfo<DistCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace netclone

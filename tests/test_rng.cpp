#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace netclone {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng rng{11};
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.next_double();
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.005);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng{3};
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 100ULL, 1000003ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroBoundIsZero) {
  Rng rng{3};
  EXPECT_EQ(rng.next_below(0), 0U);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng{5};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.next_below(6));
  }
  EXPECT_EQ(seen.size(), 6U);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng{13};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng{17};
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    hits += rng.bernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.25, 0.01);
}

TEST(Rng, ExponentialMeanAndPositivity) {
  Rng rng{19};
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential(25.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 25.0, 0.5);
}

TEST(Rng, NormalMoments) {
  Rng rng{23};
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{31};
  Rng child = parent.fork();
  // The child must not replay the parent's stream.
  Rng parent_copy{31};
  (void)parent_copy.next_u64();  // align with the fork's draw
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += child.next_u64() == parent_copy.next_u64() ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

// Property sweep: exponential draws from any seed have the right mean.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, ExponentialMeanHolds) {
  Rng rng{GetParam()};
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.exponential(10.0);
  }
  EXPECT_NEAR(sum / kN, 10.0, 0.35);
}

TEST_P(RngSeedSweep, NextBelowIsRoughlyUniform) {
  Rng rng{GetParam()};
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kN = 100000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kN; ++i) {
    ++counts[rng.next_below(kBuckets)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kN / 10.0, kN * 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 42, 12345, 0xDEADBEEF,
                                           0xFFFFFFFFFFFFFFFFULL));

}  // namespace
}  // namespace netclone

// Deterministic pseudo-random number generation for the simulator.
//
// We use xoshiro256++ rather than std::mt19937 because the simulation draws
// hundreds of millions of variates per experiment and xoshiro is both faster
// and has a tiny, copyable state. Determinism across platforms matters: every
// experiment in EXPERIMENTS.md must be re-runnable bit-for-bit, so no
// libstdc++ distribution objects are used (their outputs are not portable);
// all distributions are implemented here from uniform doubles.
#pragma once

#include <array>
#include <cstdint>

namespace netclone {

/// xoshiro256++ by Blackman & Vigna (public domain reference algorithm),
/// seeded through SplitMix64 so that any 64-bit seed yields a well-mixed
/// state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64();

  /// Uniform 32-bit value.
  [[nodiscard]] std::uint32_t next_u32();

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double();

  /// Uniform integer in [0, bound) with Lemire's unbiased method.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound);

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p);

  /// Exponential variate with the given mean (not rate).
  [[nodiscard]] double exponential(double mean);

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Forks an independent stream; the child is seeded from this stream so
  /// that components (client 0, client 1, ...) never share a sequence.
  [[nodiscard]] Rng fork();

 private:
  std::array<std::uint64_t, 4> s_{};
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace netclone

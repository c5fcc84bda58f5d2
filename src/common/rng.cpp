#include "common/rng.hpp"

#include <cmath>

namespace netclone {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint32_t Rng::next_u32() {
  return static_cast<std::uint32_t>(next_u64() >> 32);
}

double Rng::next_double() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Lemire's multiply-shift rejection method: unbiased and branch-light.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) { return next_double() < p; }

double Rng::exponential(double mean) {
  // Inverse transform; 1 - u is in (0, 1] so log() never sees zero.
  return -mean * std::log(1.0 - next_double());
}

double Rng::normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * next_double() - 1.0;
    v = 2.0 * next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return mean + stddev * u * factor;
}

Rng Rng::fork() { return Rng{next_u64()}; }

}  // namespace netclone

// Copyright 2026 The HybridTree Authors.
// Deterministic pseudo-random number generation (xoshiro256**).
//
// All dataset/workload generation in the repository routes through Rng so
// that experiments are reproducible from a single seed.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ht {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
/// seeded via splitmix64. Fast, high quality, and deterministic across
/// platforms (unlike std::mt19937 distributions, whose output is not
/// specified identically by all standard libraries).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    // splitmix64 expansion of the seed into the 256-bit state.
    uint64_t x = seed;
    for (auto& si : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      si = z ^ (z >> 31);
    }
  }

  uint64_t NextU64() {
    auto rotl = [](uint64_t v, int k) { return (v << k) | (v >> (64 - k)); };
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n) { return NextU64() % n; }

  /// Standard normal via Box-Muller.
  double NextGaussian() {
    if (have_cached_) {
      have_cached_ = false;
      return cached_;
    }
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 < 1e-300) u1 = 1e-300;
    double mag = std::sqrt(-2.0 * std::log(u1));
    cached_ = mag * std::sin(2.0 * M_PI * u2);
    have_cached_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
  }

  /// Exponential with rate lambda.
  double NextExponential(double lambda) {
    double u = NextDouble();
    if (u < 1e-300) u = 1e-300;
    return -std::log(u) / lambda;
  }

  /// Gamma(shape, 1) via Marsaglia-Tsang; used for Dirichlet sampling in the
  /// COLHIST generator.
  double NextGamma(double shape) {
    if (shape < 1.0) {
      // Boost to shape+1 then scale back (Marsaglia-Tsang trick).
      double u = NextDouble();
      if (u < 1e-300) u = 1e-300;
      return NextGamma(shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = NextGaussian();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      double u = NextDouble();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (u > 1e-300 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
        return d * v;
    }
  }

 private:
  uint64_t s_[4];
  bool have_cached_ = false;
  double cached_ = 0.0;
};

/// Cached-CDF Zipf sampler over [0, n).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace ht

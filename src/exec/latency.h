// Copyright 2026 The HybridTree Authors.
// Latency aggregation: nearest-rank percentiles over a sample set (the
// server's per-tenant latency windows, see serve/metrics.h).

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ht {

/// Summary of a latency sample set, in seconds.
struct LatencySummary {
  size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Nearest-rank percentile of an ascending-sorted sample vector;
/// `q` in [0,1]. Zero for an empty vector.
inline double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(q * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return sorted[rank];
}

/// Consumes (sorts) `samples` and summarizes them.
inline LatencySummary SummarizeLatencies(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = PercentileSorted(samples, 0.50);
  s.p95 = PercentileSorted(samples, 0.95);
  s.p99 = PercentileSorted(samples, 0.99);
  s.max = samples.back();
  return s;
}

}  // namespace ht

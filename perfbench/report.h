// Copyright 2026 The HybridTree Authors.
// The benchmark's own arithmetic: latency percentiles under the
// "at least ten samples beyond" rule, failure fractions, and the one-line
// JSON result every run prints last. Kept free of any index code so the
// self-tests (selftest.cc) can pin it down exactly.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; below that, the tail is a handful of outliers.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Number of samples strictly beyond the nearest-rank q-percentile of n
/// samples: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

struct Percentile {
  bool reportable = false;  // SamplesBeyond(samples, q) >= kMinSamplesBeyond
  double value = 0.0;       // nearest-rank value (set whenever samples > 0)
  size_t samples = 0;
};

/// Nearest-rank q-percentile (q in (0,1)) of `samples`, which need not be
/// sorted (the vector is taken by value and sorted).
Percentile ComputePercentile(std::vector<double> samples, double q);

/// Smallest sample count at which the q-percentile is reportable.
size_t MinSamplesFor(double q);

/// One timed operation: when it ended and which kind of operation it was.
struct TimedSample {
  int64_t end_ns = 0;
  int kind = 0;
};

/// A timed phase, as one or more segments [start, end), each cut into
/// equal windows; a window that would run past its segment's end does not
/// count. Reporting the median rate over the windows keeps a few seconds
/// of interference from other tenants of the host out of a throughput.
struct Windows {
  int64_t window_ns = 1'000'000'000;
  std::vector<std::pair<int64_t, int64_t>> segments;

  size_t complete() const;
  /// Median over complete windows of (samples of `kind` ending in the
  /// window) per second; kind < 0 counts every sample. 0 with no windows.
  double MedianRate(const std::vector<TimedSample>& samples, int kind) const;
};

/// failed / attempted; attempted must be at least 1.
double FailFraction(uint64_t failed, uint64_t attempted);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (latency samples, queries, cycles...);
  /// printed in the human-readable report, not in the JSON line.
  uint64_t samples = 0;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The JSON object every run prints as the last line of its standard
/// output: exactly the keys correct, attempted, failed and metrics, each
/// metric as {"value": <number with all its digits>, "unit": "<unit>"}.
std::string ResultJson(const RunResult& result);

/// Human-readable table of the same metrics, one per line with unit and
/// sample count.
std::string ResultTable(const RunResult& result);

}  // namespace perfbench

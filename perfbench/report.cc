// Copyright 2026 The HybridTree Authors.

#include "report.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps q * n from rounding up past an exact integer rank.
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(std::max<size_t>(rank, 1), n);
}

Percentile ComputePercentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const size_t beyond = SamplesBeyond(samples.size(), q);
  p.value = samples[samples.size() - 1 - beyond];
  p.reportable = beyond >= kMinSamplesBeyond;
  return p;
}

size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < kMinSamplesBeyond) ++n;
  return n;
}

namespace {

size_t WindowsIn(const std::pair<int64_t, int64_t>& segment,
                 int64_t window_ns) {
  const auto [start, end] = segment;
  if (end <= start || window_ns <= 0) return 0;
  return static_cast<size_t>((end - start) / window_ns);
}

// Samples of `kind` (every kind when kind < 0) ending in each complete
// window, the windows of all segments in order.
std::vector<size_t> CountPerWindow(const Windows& w,
                                   const std::vector<TimedSample>& samples,
                                   int kind) {
  std::vector<size_t> first;  // index of each segment's first window
  size_t total = 0;
  for (const auto& seg : w.segments) {
    first.push_back(total);
    total += WindowsIn(seg, w.window_ns);
  }
  std::vector<size_t> counts(total, 0);
  for (const TimedSample& s : samples) {
    if (kind >= 0 && s.kind != kind) continue;
    for (size_t i = 0; i < w.segments.size(); ++i) {
      const auto [start, end] = w.segments[i];
      if (s.end_ns < start || s.end_ns >= end) continue;
      const auto j = static_cast<size_t>((s.end_ns - start) / w.window_ns);
      if (j < WindowsIn(w.segments[i], w.window_ns)) ++counts[first[i] + j];
      break;
    }
  }
  return counts;
}

}  // namespace

size_t Windows::complete() const {
  size_t n = 0;
  for (const auto& seg : segments) n += WindowsIn(seg, window_ns);
  return n;
}

double Windows::MedianRate(const std::vector<TimedSample>& samples,
                           int kind) const {
  std::vector<double> rates;
  for (const size_t n : CountPerWindow(*this, samples, kind)) {
    rates.push_back(static_cast<double>(n) /
                    (static_cast<double>(window_ns) / 1e9));
  }
  return ComputePercentile(std::move(rates), 0.5).value;
}

double FailFraction(uint64_t failed, uint64_t attempted) {
  if (attempted == 0) throw std::invalid_argument("attempted must be >= 1");
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("metric is not finite");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += Quoted(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quoted(m.unit) + "}";
  }
  return out + "}}";
}

std::string ResultTable(const RunResult& result) {
  std::string out;
  char line[160];
  for (const Metric& m : result.metrics) {
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %-10s n=%" PRIu64 "\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    out += line;
  }
  return out;
}

}  // namespace perfbench

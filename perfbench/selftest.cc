// Copyright 2026 The HybridTree Authors.
// Self-tests for the benchmark's own arithmetic: the percentile rule,
// failure counting, span self time, and the output schema. run.py runs
// them before every benchmark run.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {  // 1, 2, ..., n in reverse order
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(20, 0.5), 10u);
  EXPECT_EQ(SamplesBeyond(19, 0.5), 9u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);

  EXPECT_TRUE(ComputePercentile(Ramp(1000), 0.99).reportable);
  EXPECT_FALSE(ComputePercentile(Ramp(999), 0.99).reportable);
  EXPECT_FALSE(ComputePercentile({}, 0.5).reportable);
}

TEST(PercentileRule, NearestRankValue) {
  const Percentile p99 = ComputePercentile(Ramp(1000), 0.99);
  EXPECT_EQ(p99.value, 990.0);  // exactly 10 samples (991..1000) beyond
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(ComputePercentile(Ramp(20), 0.5).value, 10.0);
  EXPECT_EQ(ComputePercentile(Ramp(21), 0.5).value, 11.0);
  EXPECT_EQ(ComputePercentile({7.5}, 0.5).value, 7.5);
}

TEST(Windows, MedianRateOverCompleteWindows) {
  // Three complete 1 s windows; the last, partial one is ignored.
  const Windows w{1'000'000'000, {{0, 3'500'000'000}}};
  EXPECT_EQ(w.complete(), 3u);
  std::vector<TimedSample> s;
  auto add = [&](int64_t window, int n, int kind) {
    for (int i = 0; i < n; ++i) {
      s.push_back({window * 1'000'000'000 + i, kind});
    }
  };
  add(0, 30, 0);
  add(1, 40, 0);
  add(2, 50, 0);
  add(2, 5, 1);
  add(3, 500, 0);  // partial window
  EXPECT_EQ(w.MedianRate(s, 0), 40.0);
  EXPECT_EQ(w.MedianRate(s, -1), 40.0);  // 30, 40, 55 per second
  EXPECT_EQ(w.MedianRate(s, 1), 0.0);    // 0, 0, 5 per second
  // A burst in one window does not move the median.
  add(0, 1000, 0);
  EXPECT_EQ(w.MedianRate(s, 0), 50.0);  // 1030, 40, 50 per second
  EXPECT_EQ((Windows{1000, {{0, 999}}}).complete(), 0u);
  EXPECT_EQ((Windows{1000, {{0, 999}}}).MedianRate(s, -1), 0.0);
}

TEST(Windows, SegmentsPoolTheirWindows) {
  // Two 10 ns-window segments with a gap (a set-up) between them; samples
  // in the gap or in a partial window belong to no window.
  const Windows w{10, {{0, 20}, {100, 125}}};
  EXPECT_EQ(w.complete(), 4u);
  std::vector<TimedSample> s;
  auto add = [&](int64_t t, int n) {
    for (int i = 0; i < n; ++i) s.push_back({t, 0});
  };
  add(5, 10);
  add(15, 20);
  add(50, 99);   // gap
  add(105, 30);
  add(115, 40);
  add(121, 99);  // partial window
  // Window rates 1e9, 2e9, 3e9, 4e9 per second: the nearest-rank median
  // is the second.
  EXPECT_EQ(w.MedianRate(s, 0), 2e9);
}

TEST(FailureCounting, FractionOfAttempts) {
  EXPECT_EQ(FailFraction(0, 10), 0.0);
  EXPECT_EQ(FailFraction(1, 4), 0.25);
  EXPECT_EQ(FailFraction(3, 3), 1.0);
  EXPECT_THROW(FailFraction(0, 0), std::invalid_argument);
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildren) {
  EXPECT_EQ(SelfTimeNs(0, 100, {}), 100);
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 20}, {30, 50}}), 70);
  // Overlapping children count once.
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 40}, {20, 50}}), 60);
  // Nested children count once.
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 90}, {20, 30}}), 20);
  // Children are clipped to the parent (replays outside it cover nothing).
  EXPECT_EQ(SelfTimeNs(0, 100, {{-10, 10}, {90, 120}, {200, 300}}), 80);
  // Order does not matter.
  EXPECT_EQ(SelfTimeNs(0, 100, {{30, 50}, {10, 20}}), 70);
}

TEST(SpanSelfTime, ScopesNestOnOneThread) {
  Tracer tracer;
  tracer.set_enabled(true);
  SpanScope outer(&tracer, SpanName::kCoreFlush, 7);
  {
    SpanScope inner(&tracer, SpanName::kFileSync, 7);
    inner.End();
    EXPECT_EQ(inner.self_ns(), inner.duration_ns());
  }
  outer.End();
  EXPECT_LE(outer.self_ns(), outer.duration_ns());
  EXPECT_EQ(tracer.stored(), 2u);

  // A replay names its parent explicitly and does not nest in time.
  SpanScope replay(&tracer, SpanName::kShardKnn, 7, outer.id());
  replay.End();
  EXPECT_EQ(replay.self_ns(), replay.duration_ns());

  // A disabled tracer records nothing but still times the call.
  tracer.set_enabled(false);
  SpanScope off(&tracer, SpanName::kCoreKnn, 8);
  off.End();
  EXPECT_GE(off.duration_ns(), 0);
  EXPECT_EQ(tracer.stored(), 3u);
}

TEST(SpanSelfTime, CapKeepsCounting) {
  Tracer tracer(2);
  tracer.set_enabled(true);
  for (int i = 0; i < 5; ++i) SpanScope s(&tracer, SpanName::kFileRead, 0);
  EXPECT_EQ(tracer.stored(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
}

TEST(OutputSchema, ExactKeysAndFullPrecision) {
  RunResult r;
  r.correct = true;
  r.attempted = 1000;
  r.failed = 0;
  r.metrics.push_back({"latency_ms", 1.2034, "ms", 5});
  r.metrics.push_back({"setup_s", 0.1 + 0.2, "s", 3});
  EXPECT_EQ(ResultJson(r),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.30000000000000004, "
            "\"unit\": \"s\"}}}");
  r.correct = false;
  r.metrics.clear();
  EXPECT_EQ(ResultJson(r),
            "{\"correct\": false, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {}}");
  // A line of output is one line.
  EXPECT_EQ(ResultJson(r).find('\n'), std::string::npos);
}

TEST(OutputSchema, RejectsNonFiniteValues) {
  RunResult r;
  r.attempted = 1;
  r.metrics.push_back(
      {"qps", std::numeric_limits<double>::infinity(), "queries/s", 0});
  EXPECT_THROW(ResultJson(r), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench

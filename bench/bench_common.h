// Copyright 2026 The HybridTree Authors.
// Shared helpers for the per-figure benchmark binaries.
//
// Every bench prints the paper experiment it reproduces, its (env-
// overridable) configuration, and a table with the same rows/series the
// paper reports. Absolute numbers differ from the 1999 testbed; the
// comparisons of interest are the normalized costs and orderings.
//
// Environment overrides:
//   HT_BENCH_N        dataset size            (default per bench)
//   HT_BENCH_QUERIES  queries per data point  (default 100)
//
// The figure benches also check answers: every structure's workload
// digest (QueryCosts::answer_digest) must equal the sequential scan's,
// or the bench exits 1.

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/workload.h"
#include "eval/harness.h"
#include "eval/hybrid_adapter.h"

namespace ht::bench {

inline size_t Queries() { return EnvSize("HT_BENCH_QUERIES", 100); }

/// The paper's constant selectivities (§4).
inline constexpr double kColhistSelectivity = 0.002;   // 0.2%
inline constexpr double kFourierSelectivity = 0.0007;  // 0.07%

struct BoxWorkload {
  std::vector<Box> queries;
  double side = 0.0;
};

/// Query centers at jittered data points; side calibrated to `selectivity`.
inline BoxWorkload MakeBoxWorkload(const Dataset& data, double selectivity,
                                   size_t n_queries, Rng& rng) {
  BoxWorkload w;
  w.side = CalibrateBoxSide(data, selectivity, 20, rng);
  auto centers = MakeQueryCenters(data, n_queries, rng);
  w.queries.reserve(centers.size());
  for (const auto& c : centers) w.queries.push_back(MakeBoxQuery(c, w.side));
  return w;
}

inline void PrintHeader(const char* experiment, const char* paper_ref,
                        const std::string& config) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Config: %s\n", config.c_str());
  std::printf("==============================================================\n");
}

/// Compares each structure's answers with the sequential scan's and turns
/// the outcome into the bench's exit code.
class AnswerCheck {
 public:
  /// `what` names the structure and data point in a mismatch report.
  void Expect(const std::string& what, const QueryCosts& got,
              const QueryCosts& scan) {
    ++checked_;
    if (got.answer_digest == scan.answer_digest) return;
    ++mismatches_;
    std::fprintf(stderr, "answer mismatch: %s differs from SeqScan\n",
                 what.c_str());
  }

  int ExitCode() const {
    std::printf("Answer check: %zu of %zu structure workloads match SeqScan\n",
                checked_ - mismatches_, checked_);
    return mismatches_ == 0 ? 0 : 1;
  }

 private:
  size_t checked_ = 0;
  size_t mismatches_ = 0;
};

/// Builds + measures one structure on a box workload; returns costs.
inline QueryCosts MeasureBox(IndexKind kind, const Dataset& data,
                             const BuildConfig& config,
                             const std::vector<Box>& queries) {
  auto bundle_r = BuildIndex(kind, data, config);
  HT_CHECK_OK(bundle_r.status());
  auto costs_r = RunBoxWorkload(bundle_r.ValueOrDie().index.get(), queries);
  HT_CHECK_OK(costs_r.status());
  return costs_r.ValueOrDie();
}

}  // namespace ht::bench

// Copyright 2026 The HybridTree Authors.
// The benchmark's three workloads (see README.md for why each exists):
//
//   serve-fourier16-warm   Server over a 4-shard ShardedIndex, 4 clients
//   tree-colhist64-1t      one HybridTree, one thread, budgeted 64-d k-NN
//   ingest-fourier16-disk  InsertBatch / queries / Flush on a disk file
//
// Each workload generates its inputs from the seed, sets up (timed, the
// median of several set-ups), checks its answers, runs its timed phase
// and reports either the end-to-end metrics (tracing off) or the
// per-layer metrics (tracing on).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the ingest workload's files (inside the checkout).
  std::string tmp_dir;
};

/// What a workload hands back: the result (metrics for the current mode)
/// plus the end-to-end metrics that the JSON line does not carry, which
/// the human-readable report prints as well.
struct WorkloadReport {
  RunResult result;
  std::vector<Metric> extra;
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

/// Runs `config.workload`, recording spans into `tracer` when
/// config.trace is set. Returns false for an unknown workload name.
bool RunWorkload(const RunConfig& config, Tracer* tracer,
                 WorkloadReport* report);

}  // namespace perfbench

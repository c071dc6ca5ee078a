// Copyright 2026 The HybridTree Authors.
// Experiment harness: builds indexes over datasets, runs calibrated query
// workloads, and reports the paper's figures of merit — average disk
// accesses, average CPU time, and costs normalized against sequential scan
// (§4: normalized I/O cost of linear scan is 0.1 because sequential pages
// cost one tenth of a random access; normalized CPU cost of linear scan is
// 1.0).

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/spatial_index.h"
#include "common/result.h"
#include "data/dataset.h"
#include "data/workload.h"
#include "storage/paged_file.h"

namespace ht {

/// Which index structure to build.
enum class IndexKind {
  kHybrid,
  kHybridVam,
  kHybridNoEls,
  kSrTree,
  kHbTree,
  kKdbTree,
  kRStarTree,
  kSeqScan,
};

std::string IndexKindName(IndexKind kind);

/// Build-time configuration shared across structures.
struct BuildConfig {
  size_t page_size = kDefaultPageSize;
  /// Hybrid tree only. The paper runs 4-bit ELS against ancestor-clipped
  /// reference regions; our references are node-local (robustly immune to
  /// ancestor boundary changes — see core/hybrid_tree.h), which needs ~2
  /// extra bits for the same effective resolution. Figure 5(c) sweeps this.
  uint32_t els_bits = 8;
  double expected_query_side = 0.1;
};

/// An index together with the backing file it lives in.
struct IndexBundle {
  std::unique_ptr<MemPagedFile> file;
  std::unique_ptr<SpatialIndex> index;
  double build_seconds = 0.0;
  /// File-level I/O incurred by construction — `writes` counts page-store
  /// round trips, `batch_writes` the WriteBatch trips that coalesced them.
  IoStats build_io;
};

/// Builds `kind` over `data` (row ids become object ids).
Result<IndexBundle> BuildIndex(IndexKind kind, const Dataset& data,
                               const BuildConfig& config);

/// Per-workload measured costs.
struct QueryCosts {
  double avg_accesses = 0.0;    // pages visited per query (PagesVisited)
  double avg_physical = 0.0;    // physical (pool-miss) reads per query
  double hit_rate = 0.0;        // buffer-pool hit rate over the workload
  double avg_cpu_seconds = 0.0; // thread CPU time per query (CpuTimer),
                                // median repetition of the workload
  double avg_results = 0.0;
  size_t queries = 0;
  /// Every answer of the workload folded in query order: the ids sorted,
  /// or for k-NN the distances only (ties may pick different ids). Equal
  /// digests mean equal answers, whichever structure ran the queries.
  uint64_t answer_digest = 0;
};

/// Runs every box query, averaging accesses/CPU.
Result<QueryCosts> RunBoxWorkload(SpatialIndex* index,
                                  const std::vector<Box>& queries);

/// Runs distance-range queries under `metric`.
Result<QueryCosts> RunRangeWorkload(
    SpatialIndex* index, const std::vector<std::vector<float>>& centers,
    double radius, const DistanceMetric& metric);

/// Runs k-NN queries under `metric`.
Result<QueryCosts> RunKnnWorkload(
    SpatialIndex* index, const std::vector<std::vector<float>>& centers,
    size_t k, const DistanceMetric& metric);

/// Paper-style normalization against the sequential scan of the same data:
/// io = random accesses / sequential pages (0.1 for the scan itself);
/// cpu = cpu / scan cpu (1.0 for the scan itself).
struct NormalizedCosts {
  double io = 0.0;
  double cpu = 0.0;
};
NormalizedCosts Normalize(const QueryCosts& costs, bool sequential_io,
                          uint64_t scan_pages, const QueryCosts& scan_costs);

/// Environment-variable override helpers for bench defaults.
size_t EnvSize(const char* name, size_t fallback);

/// Fixed-width table printing for the bench binaries.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(const std::vector<std::string>& cells);
  void Print() const;

  static std::string Num(double v, int precision = 4);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ht

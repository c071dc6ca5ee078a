// Copyright 2026 The HybridTree Authors.
// Tuning knobs for the hybrid tree.

#pragma once

#include <cstdint>

#include "storage/io_stats.h"
#include "storage/page.h"

namespace ht {

/// Node-splitting policy (Figure 5(a),(b) compares these).
enum class SplitPolicy : uint8_t {
  /// The paper's policy (§3.2/§3.3): minimize the increase in the expected
  /// number of disk accesses (EDA). Data nodes split on the maximum-extent
  /// dimension at the position closest to the middle; index nodes pick the
  /// dimension minimizing (w_d + r)/(s_d + r).
  kEdaOptimal = 0,
  /// VAMSplit-style policy (White & Jain [24]): maximum-variance dimension,
  /// median split position.
  kVamSplit = 1,
};

/// Where Encoded Live Space codes live (§3.4). The paper stores them in
/// memory ("for 8K page, 4 bit precision and 64-d space, the overhead is
/// less than 1% of the database size and can be stored in memory").
enum class ElsMode : uint8_t {
  /// No dead-space elimination; the BR of a child is its kd region.
  kOff = 0,
  /// Codes kept in a memory-resident sidecar; node fanout is unaffected.
  /// After reopening a persisted tree the sidecar is rebuilt by one DFS.
  kInMemory = 1,
  /// Codes serialized into the index pages; fully persistent but reduces
  /// fanout by 2*dim*bits bits per child.
  kInPage = 2,
};

/// Query-size model used by the EDA-optimal index-node split (§3.3): the
/// expected increase in disk accesses depends on the query side length r.
enum class QuerySizeModel : uint8_t {
  /// All queries have side `expected_query_side` (the paper's experimental
  /// setting: "In our experiments, we use all queries of the same size").
  kFixed = 0,
  /// r uniform on [0,1]: cost(d) = integral_0^1 (w_d+r)/(s_d+r) dr,
  /// which has the closed form 1 + (w_d - s_d) ln((s_d+1)/s_d).
  kUniform = 1,
};

struct HybridTreeOptions {
  /// Feature-space dimensionality (immutable once the tree is created).
  uint32_t dim = 2;

  /// Page size in bytes; the paper evaluates with 4096.
  size_t page_size = kDefaultPageSize;

  /// Minimum fill fraction of a data node (guaranteed utilization). A split
  /// leaves each side with at least ceil(frac * capacity) entries.
  double data_node_min_util = 0.40;

  /// Minimum fraction of children on each side of an index-node split.
  double index_node_min_util = 0.33;

  SplitPolicy split_policy = SplitPolicy::kEdaOptimal;

  ElsMode els_mode = ElsMode::kInMemory;

  /// ELS precision in bits per boundary; the paper finds 4 bits eliminate
  /// most dead space (Figure 5(c)).
  uint32_t els_bits = 4;

  QuerySizeModel query_size_model = QuerySizeModel::kFixed;

  /// Expected box-query side length r for QuerySizeModel::kFixed.
  double expected_query_side = 0.1;

  /// Buffer pool capacity in pages; 0 = unbounded (benchmarks measure
  /// logical accesses, which are cache-independent).
  size_t buffer_pool_pages = 0;

  /// Buffer-pool eviction policy. kSlru (the default) is the scan-resistant
  /// segmented policy: full-tree scans, bulk loads, and prefetched-but-
  /// never-referenced pages cannot displace the multi-touch query working
  /// set. kLru restores the classic recency-only pool. Query results are
  /// byte-identical either way — only the physical-read pattern differs —
  /// and at unbounded capacity (the default) the policies are
  /// indistinguishable. Runtime-only: not persisted by Flush()/Open().
  CachePolicy cache_policy = CachePolicy::kSlru;

  /// Enables the per-data-page 8-bit quantized filter-then-refine scan
  /// path for range, (bounded) k-NN and box queries: a sound lower bound
  /// on each point's distance (box: a code-range test) is computed from
  /// cached uint8 codes and only the survivors get an exact test. The
  /// filter runs before the page is pinned, so a page with no survivor is
  /// never fetched. Results and pages visited (IoStats::PagesVisited) are
  /// identical either way — the lower bound never prunes a true hit, and
  /// refinement replays the exact kernel arithmetic. Sidecars are built
  /// lazily on a page's first pinned scan and invalidated on page writes;
  /// turning this off only stops filtering (cached sidecars are kept).
  /// Runtime-only: not persisted by Flush()/Open().
  bool quant_sidecars = true;

  /// Frontier-driven prefetch depth for the cold-cache I/O pipeline: on
  /// each best-first pop of a k-NN search (SearchKnn* and the KnnCursor
  /// they drain) the tree prefetches up to this many next-best frontier
  /// pages alongside the popped one, and box/range descents prefetch all
  /// qualifying children of an index node before recursing. 0 disables
  /// prefetch (the default, and the paper's access pattern). Results and
  /// pages visited are identical at any depth — prefetch only batches
  /// physical reads into fewer round trips, on the searching thread, and
  /// never requests a page the search rules out from its sidecar.
  /// Runtime-only: not persisted by Flush()/Open(); adjustable via
  /// SetPrefetchDepth().
  size_t prefetch_depth = 0;
};

}  // namespace ht

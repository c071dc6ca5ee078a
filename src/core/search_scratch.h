// Copyright 2026 The HybridTree Authors.
// Reusable per-query buffers for the HybridTree search hot paths.
//
// A SearchScratch owns every dynamically-sized structure a search needs:
// the batch-kernel distance output buffer (page granularity), the k-NN
// engine's state (the best-first frontier of pending pages and the heap of
// materialized entries, both vector-backed binary min-heaps whose backing
// stores survive across queries, the self-bound heap and the query
// center), the per-index-node batch outputs (child MINDISTs, box-route and
// overlap bit masks), the depth-first descent list, the sidecar filter's
// masks and the survivors of the page being visited, and the scan counters
// a search tallies per page until it returns (ScanTally). Buffers are
// cleared — never shrunk — at the start of each search, so after one
// warm-up query the steady-state search loop performs no heap allocation
// (verified by search_alloc_test).
//
// Ownership rules:
//  * One scratch serves one query at a time. It may be reused freely
//    across queries, query types, and trees. A KnnCursor opened on a
//    scratch is such a query until the cursor is destroyed; the batch
//    k-NN search is a cursor drained on the caller's scratch.
//  * Concurrent queries need distinct scratches — ShardedIndex keeps a
//    free-list its scatter tasks borrow from.
//  * Passing nullptr to the scratch-taking search overloads makes the tree
//    use a function-local scratch: always correct, but it re-allocates per
//    query. Callers on a hot path should hold a scratch.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/quantize.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace ht {

class SearchScratch {
 public:
  SearchScratch() = default;
  SearchScratch(SearchScratch&&) = default;
  SearchScratch& operator=(SearchScratch&&) = default;

 private:
  friend class HybridTree;

  /// Pending subtree of the best-first k-NN engine, keyed by the MINDIST
  /// lower bound to its live region.
  struct PageRef {
    double dist;
    PageId page;
  };

  /// One child page a box/range/ScanAll descent has committed to
  /// visiting: collected from the node's batch verdicts in leaf order,
  /// prefetched as a batch, then descended in that order (so results are
  /// byte-identical with prefetch on or off). `contained` marks that every
  /// row below the page qualifies (a box search's scan-level pruning, and
  /// every page of ScanAll), so the page is never filtered.
  struct Descent {
    PageId page;
    bool contained;
  };

  std::vector<double> dist;       // batch-kernel outputs, one per page row
  std::vector<PageRef> frontier;  // k-NN pending pages, min-heap by dist
  std::vector<std::pair<double, uint64_t>> entries;  // min-heap (dist, id)
  std::vector<double> self_bound;  // `limit` nearest distances, max-heap
  std::vector<float> center;       // the k-NN query center
  std::vector<double> child_dist;  // MINDIST per child of one index node
  std::vector<uint64_t> reached;     // children the box route reaches
  std::vector<uint64_t> intersects;  // reached children overlapping a box
  std::vector<uint64_t> contains;    // reached children inside a box
  std::vector<Descent> descents;  // collect-then-descend (base-marked)
  std::vector<PageId> prefetch_ids;   // batch under construction
  std::vector<PageRef> prefetch_top;  // k-NN next-best frontier sample
  std::vector<uint8_t> masks;         // fused-filter survivor bits
  std::vector<uint32_t> survivors;    // the visited page's filter result
  quant::FilterScratch quant;         // per-(query,page) filter prep
  ScanTally tally;  // scan counters, charged when the search returns
};

}  // namespace ht

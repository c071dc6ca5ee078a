// Copyright 2026 The HybridTree Authors.
// Bottom-up bulk construction of a hybrid tree from a dataset.
//
// Incremental insertion yields ~65-70% data-node fill (each split leaves
// two half-full nodes); bulk loading packs data nodes to 90% of capacity by
// recursive EDA-guided partitioning of the whole dataset, then builds the
// index levels over spatially contiguous runs. The result is a smaller
// tree with tighter live regions — the standard practice for initial loads
// (the paper's VAMSplit comparison [24] is itself a bulk-load algorithm).

#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/hybrid_tree.h"
#include "data/dataset.h"

namespace ht {

struct BulkLoadOptions {
  /// Worker threads for stage 1 (partitioning and leaf writes); 0 or 1
  /// selects the serial loader. The parallel loader produces a
  /// byte-identical file: partition cuts depend only on the data (never on
  /// thread scheduling), leaves get the same page ids in the same
  /// depth-first order, and workers serialize disjoint contiguous page
  /// ranges straight to the file with one PagedFile::WriteBatch per chunk —
  /// bypassing the buffer pool so each worker's blocking write latency
  /// overlaps the others'.
  size_t threads = 0;
};

/// Builds a hybrid tree over `data` (row ids become object ids) in `file`,
/// which must be empty. The returned tree is fully dynamic afterwards.
Result<std::unique_ptr<HybridTree>> BulkLoad(const HybridTreeOptions& options,
                                             PagedFile* file,
                                             const Dataset& data,
                                             const BulkLoadOptions& bulk = {});

/// One EDA/VAM-guided partition step over a row-id subset: chooses the
/// split dimension by `options.split_policy` on the subset's live box,
/// sorts `ids` along it, and returns the cut index, keeping duplicate
/// boundary values together and falling back to a count split when a
/// duplicate block would leave either side under `capacity *
/// data_node_min_util` entries. A pure function of (data, options,
/// subset) — never of thread scheduling — which is what makes both the
/// parallel bulk loader and the serve layer's kd-region sharder
/// deterministic. `target_leaf` is the intended entries-per-leaf (or
/// per-partition) granularity the cut is aligned to.
size_t PartitionSubset(const Dataset& data, const HybridTreeOptions& options,
                       size_t capacity, size_t target_leaf,
                       std::vector<uint32_t>& ids);

}  // namespace ht

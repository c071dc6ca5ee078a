// Copyright 2026 The HybridTree Authors.
// KDB-tree (Robinson 1981): the disk-based space-partitioning structure
// with strictly disjoint 1-d splits that the hybrid tree relaxes.
//
// Splits must be "clean": when an index node splits along (dim, pos),
// every child whose region straddles the plane must itself be split —
// the downward cascading splits that cost the KDB-tree its utilization
// guarantee and create empty nodes (paper §3.1, Table 1). Cascades and
// empty nodes are counted so the Table-1 bench can report them.
//
// Like the hybrid tree we represent the intra-node partitioning as a
// kd-tree (with lsp == rsp always); only straddling subtrees cascade.

#pragma once

#include <memory>

#include "baselines/spatial_index.h"
#include "baselines/tree_search.h"
#include "core/node.h"
#include "storage/paged_file.h"

namespace ht {

struct KdbStats {
  uint64_t data_nodes = 0;
  uint64_t index_nodes = 0;
  uint64_t empty_data_nodes = 0;
  double avg_data_utilization = 0.0;
  double min_data_utilization = 1.0;
  double avg_index_fanout = 0.0;
  uint64_t cascading_splits = 0;  // forced child splits, cumulative
};

class KdbTree final : public SpatialIndex {
 public:
  static Result<std::unique_ptr<KdbTree>> Create(uint32_t dim,
                                                 PagedFile* file);

  std::string Name() const override { return "KDB-tree"; }
  Status Insert(std::span<const float> point, uint64_t id) override;
  Status Delete(std::span<const float> point, uint64_t id) override;
  Result<std::vector<uint64_t>> SearchBox(const Box& query) override;
  Result<std::vector<uint64_t>> SearchRange(
      std::span<const float> center, double radius,
      const DistanceMetric& metric) override;
  Result<std::vector<std::pair<double, uint64_t>>> SearchKnn(
      std::span<const float> center, size_t k,
      const DistanceMetric& metric) override;

  uint64_t size() const override { return count_; }
  BufferPool& pool() override { return *pool_; }

  Result<KdbStats> ComputeStats();
  Status CheckInvariants();
  size_t data_node_capacity() const { return data_capacity_; }

 private:
  KdbTree(uint32_t dim, PagedFile* file);

  /// How the shared query loops (tree_search.h) read this tree.
  tree_search::KdNav</*kVisitOnce=*/false> Nav() {
    return {pool_.get(), dim_, root_, count_};
  }

  Result<DataNode> ReadDataNode(PageId id);
  Status WriteDataNode(PageId id, const DataNode& node);
  Result<IndexNode> ReadIndexNode(PageId id);
  Status WriteIndexNode(PageId id, const IndexNode& node);
  Result<NodeKind> PeekKind(PageId id);

  struct SplitResult {
    bool split = false;
    uint32_t dim = 0;
    float pos = 0.0f;
    PageId right_page = kInvalidPageId;
  };
  Result<SplitResult> InsertRec(PageId page, const Box& br,
                                std::span<const float> point, uint64_t id);
  Result<SplitResult> SplitDataPage(PageId page, DataNode& node,
                                    const Box& br);
  Result<SplitResult> SplitIndexPage(PageId page, IndexNode& node,
                                     const Box& br);

  /// Splits the subtree rooted at `page` cleanly along (dim, pos),
  /// cascading into children whose regions straddle the plane. `page` is
  /// reused for the left half; the returned id holds the right half.
  Result<PageId> SplitSubtreePage(PageId page, const Box& region,
                                  uint32_t dim, float pos);

  /// Cuts a kd-tree along the plane. Exactly one of the returned parts may
  /// be null when the whole subtree lies on one side.
  struct CutParts {
    std::unique_ptr<KdNode> left;
    std::unique_ptr<KdNode> right;
  };
  Result<CutParts> CutKd(std::unique_ptr<KdNode> n, const Box& region,
                         uint32_t dim, float pos);

  Status ComputeStatsRec(PageId page, KdbStats* stats, double* util_sum);
  Status CheckInvariantsRec(PageId page, const Box& br,
                            uint64_t* entries_seen);

  uint32_t dim_;
  size_t page_size_;
  std::unique_ptr<BufferPool> pool_;
  size_t data_capacity_ = 0;
  PageId root_ = kInvalidPageId;
  uint64_t count_ = 0;
  uint64_t cascading_splits_ = 0;
};

}  // namespace ht

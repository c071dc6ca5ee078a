// Copyright 2026 The HybridTree Authors.
// hB-tree (Lomet & Salzberg, TODS 1990): the SP-based baseline of the
// paper. Nodes organize their space with intra-node kd-trees and split by
// *extracting* a corner region whose content fraction lies in [1/3, 2/3];
// the extracted corner is described by a chain of (dim, pos, side)
// constraints. The split is then POSTED: in every parent node, every
// kd-leaf referencing the split node is replaced by the constraint chain,
// whose non-extracted sides keep referencing the old node — so a node ends
// up referenced from several kd-leaves ("holey bricks", the storage
// redundancy Table 1 charges the hB-tree with). Posting can overflow a
// parent, which then splits by kd-subtree extraction and posts upward in
// turn.
//
// Faithful subset (see DESIGN.md §5): insert + box/range/k-NN search with
// clean kd navigation and per-query visited-page deduplication; the
// node-to-parents map is kept in memory. Deletion is not implemented (the
// original leaves consolidation across multi-parent references
// unspecified; the paper's experiments never delete, and exclude the
// hB-tree from its distance experiments).

#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "baselines/spatial_index.h"
#include "baselines/tree_search.h"
#include "core/node.h"
#include "storage/paged_file.h"

namespace ht {

struct HbStats {
  uint64_t data_nodes = 0;
  uint64_t index_nodes = 0;
  double avg_data_utilization = 0.0;
  double min_data_utilization = 1.0;
  double avg_index_fanout = 0.0;  // distinct children per index node
  /// kd-leaves beyond one per distinct child — the redundant references.
  uint64_t redundant_refs = 0;
  uint64_t multi_step_splits = 0;  // splits needing > 1 constraint
  uint64_t multi_parent_nodes = 0;  // nodes referenced from >1 parent page
};

class HbTree final : public SpatialIndex {
 public:
  static Result<std::unique_ptr<HbTree>> Create(uint32_t dim, PagedFile* file);

  std::string Name() const override { return "hB-tree"; }
  Status Insert(std::span<const float> point, uint64_t id) override;
  Result<std::vector<uint64_t>> SearchBox(const Box& query) override;
  Result<std::vector<uint64_t>> SearchRange(
      std::span<const float> center, double radius,
      const DistanceMetric& metric) override;
  Result<std::vector<std::pair<double, uint64_t>>> SearchKnn(
      std::span<const float> center, size_t k,
      const DistanceMetric& metric) override;

  uint64_t size() const override { return count_; }
  BufferPool& pool() override { return *pool_; }

  Result<HbStats> ComputeStats();
  Status CheckInvariants();
  /// Verifies that the in-memory parent map matches the actual references
  /// found by a full traversal (test support).
  Status VerifyParentIndex();
  size_t data_node_capacity() const { return data_capacity_; }

 private:
  HbTree(uint32_t dim, PagedFile* file);

  /// How the shared query loops (tree_search.h) read this tree: a child
  /// that several kd leaves reference is read once per query.
  tree_search::KdNav</*kVisitOnce=*/true> Nav() {
    return {pool_.get(), dim_, root_, count_};
  }

  Result<DataNode> ReadDataNode(PageId id);
  Status WriteDataNode(PageId id, const DataNode& node);
  Result<IndexNode> ReadIndexNode(PageId id);
  Status WriteIndexNode(PageId id, const IndexNode& node);
  Result<NodeKind> PeekKind(PageId id);

  /// One half-space constraint of an extracted corner.
  struct Constraint {
    uint32_t dim = 0;
    float pos = 0.0f;
    bool extracted_is_left = false;  // extracted side is {v <= pos}
  };
  struct SplitInfo {
    std::vector<Constraint> path;
    PageId new_page = kInvalidPageId;
  };

  /// The corner box described by a constraint chain within the data space.
  Box CornerBox(const std::vector<Constraint>& path) const;

  /// Splits an over-full data page by iterated-median corner extraction.
  Result<SplitInfo> SplitDataNode(PageId page, DataNode& node);
  /// Splits an over-full index page by kd-subtree extraction.
  Result<SplitInfo> SplitIndexNode(PageId page, IndexNode& node);

  /// Grafts `path` at every kd-leaf of `node` referencing `old_child`
  /// whose region intersects the corner; returns the number of grafts.
  size_t GraftChains(IndexNode* node, PageId old_child,
                     const SplitInfo& info);

  /// Posts a split of `child` to all its parents (grafting chains),
  /// splitting parents that overflow and posting those splits recursively.
  /// Grows a new root when `child` is the root.
  Status PostSplit(PageId child, SplitInfo info);

  static std::unique_ptr<KdNode> BuildChain(
      const std::vector<Constraint>& path, PageId old_child,
      PageId new_child, size_t next = 0);

  /// BuildChain restricted to the grafting leaf's region: constraints that
  /// do not cut the region produce no kd node (avoiding dead references
  /// with empty regions).
  static std::unique_ptr<KdNode> BuildChainClipped(
      const std::vector<Constraint>& path, PageId old_child,
      PageId new_child, const Box& region, size_t next = 0);

  Status ComputeStatsRec(PageId page, HbStats* stats, double* util_sum,
                         std::unordered_set<PageId>* seen);

  uint32_t dim_;
  size_t page_size_;
  std::unique_ptr<BufferPool> pool_;
  size_t data_capacity_ = 0;
  PageId root_ = kInvalidPageId;
  uint64_t count_ = 0;
  uint64_t multi_step_splits_ = 0;
  /// child page -> parent index pages referencing it (deduplicated).
  std::unordered_map<PageId, std::vector<PageId>> parents_;
};

}  // namespace ht

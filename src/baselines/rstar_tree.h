// Copyright 2026 The HybridTree Authors.
// R*-tree (Beckmann, Kriegel, Schneider, Seeger 1990): the canonical
// data-partitioning (bounding-box hierarchy) baseline. Table 1's "R-tree"
// row: all k dimensions participate in every split, fanout shrinks
// linearly with dimensionality (each index entry stores a full 2k-float
// box), and sibling boxes may overlap arbitrarily.
//
// Implemented features: ChooseSubtree with overlap-enlargement at the leaf
// level, the R* margin-driven split (axis by minimum margin sum, index by
// minimum overlap), forced reinsertion of the 30% leaf entries farthest
// from the node center on first leaf overflow per insertion, deletion with
// condense-and-reinsert, and box / distance-range / k-NN search.

#pragma once

#include <memory>

#include "baselines/spatial_index.h"
#include "core/node.h"
#include "storage/paged_file.h"

namespace ht {

struct RStarStats {
  uint64_t data_nodes = 0;
  uint64_t index_nodes = 0;
  double avg_leaf_utilization = 0.0;
  double avg_index_fanout = 0.0;
  size_t index_capacity = 0;  // entries per index page (shrinks with dim!)
  uint64_t forced_reinsertions = 0;
  uint64_t splits = 0;
  /// Mean fraction of sibling-box pairs that intersect (Table 1 "degree of
  /// overlap: high"); volume-based measures underflow at high d.
  double avg_sibling_overlap = 0.0;
};

class RStarTree final : public SpatialIndex {
 public:
  static Result<std::unique_ptr<RStarTree>> Create(uint32_t dim,
                                                   PagedFile* file);

  std::string Name() const override { return "R*-tree"; }
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

  Result<RStarStats> ComputeStats();
  Status CheckInvariants();
  size_t leaf_capacity() const { return leaf_capacity_; }
  size_t index_capacity() const { return index_capacity_; }

  /// An index-page entry: child bounding box + child page. Public so the
  /// SR-tree (which extends this machinery) and tests can build on it.
  struct IEntry {
    Box br;
    PageId child = kInvalidPageId;
  };
  struct INode {
    uint8_t level = 1;
    std::vector<IEntry> entries;
  };

 protected:
  /// How the shared query loops (tree_search.h) read this tree.
  struct Nav;

  RStarTree(uint32_t dim, PagedFile* file);

  Result<DataNode> ReadLeaf(PageId id);
  Status WriteLeaf(PageId id, const DataNode& node);
  Result<INode> ReadIndex(PageId id);
  Result<INode> DecodeIndex(const uint8_t* data, size_t size) const;
  Status WriteIndex(PageId id, const INode& node);
  Result<NodeKind> PeekKind(PageId id);

  struct SplitOut {
    bool split = false;
    Box left_br;   // updated box of the original page
    Box right_br;  // box of the new page
    PageId right_page = kInvalidPageId;
    bool reinserting = false;  // entries were removed for reinsertion
  };
  struct InsertCtx {
    bool leaf_reinsert_done = false;
    std::vector<DataEntry> pending;  // leaf entries to reinsert
  };
  Result<SplitOut> InsertRec(PageId page, std::span<const float> point,
                             uint64_t id, InsertCtx* ctx);
  SplitOut SplitLeaf(DataNode& node, DataNode* right);
  SplitOut SplitIndex(INode& node, INode* right);

  /// R* ChooseSubtree among index entries for a point at the given level.
  size_t ChooseSubtree(const INode& node, std::span<const float> point) const;

  Status ComputeStatsRec(PageId page, RStarStats* stats, double* leaf_util,
                         double* overlap_sum, uint64_t* overlap_nodes);
  Status CheckInvariantsRec(PageId page, const Box& br, bool is_root,
                            uint32_t expected_level, uint64_t* entries_seen);
  Status CollectEntries(PageId page, std::vector<DataEntry>* out,
                        std::vector<PageId>* pages);

  uint32_t dim_;
  size_t page_size_;
  std::unique_ptr<BufferPool> pool_;
  size_t leaf_capacity_ = 0;
  size_t index_capacity_ = 0;
  size_t leaf_min_ = 0;
  size_t index_min_ = 0;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  uint64_t count_ = 0;
  uint64_t reinsertions_ = 0;
  uint64_t splits_ = 0;
};

/// Serialized R-tree index page kind byte.
inline constexpr uint8_t kRIndexKind = 4;

}  // namespace ht

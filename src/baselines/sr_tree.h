// Copyright 2026 The HybridTree Authors.
// SR-tree (Katayama & Satoh, SIGMOD 1997): the paper's DP-based
// competitor. Each index entry carries BOTH a bounding rectangle and a
// bounding sphere (centroid + radius); the region is their intersection,
// which is tighter than either alone. Insertion is SS-tree style (descend
// toward the nearest centroid); splits pick the dimension with maximal
// centroid variance. The doubled region storage makes index entries even
// larger than R-tree entries (12·dim + 12 bytes), so fanout degrades
// quickly with dimensionality — a key reason it loses to the hybrid tree
// at high d (paper Figure 6).

#pragma once

#include <memory>

#include "baselines/spatial_index.h"
#include "core/node.h"
#include "storage/paged_file.h"

namespace ht {

struct SrStats {
  uint64_t data_nodes = 0;
  uint64_t index_nodes = 0;
  double avg_leaf_utilization = 0.0;
  double avg_index_fanout = 0.0;
  size_t index_capacity = 0;
};

class SrTree final : public SpatialIndex {
 public:
  static Result<std::unique_ptr<SrTree>> Create(uint32_t dim, PagedFile* file);

  std::string Name() const override { return "SR-tree"; }
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

  Result<SrStats> ComputeStats();
  Status CheckInvariants();
  size_t leaf_capacity() const { return leaf_capacity_; }
  size_t index_capacity() const { return index_capacity_; }

  /// An index entry: rectangle + sphere + weight (points beneath) + child.
  struct SREntry {
    Box rect;
    std::vector<float> center;
    float radius = 0.0f;
    uint32_t weight = 0;
    PageId child = kInvalidPageId;
  };
  struct SRNode {
    uint8_t level = 1;
    std::vector<SREntry> entries;
  };

 private:
  /// How the shared query loops (tree_search.h) read this tree.
  struct Nav;

  SrTree(uint32_t dim, PagedFile* file);

  Result<DataNode> ReadLeaf(PageId id);
  Status WriteLeaf(PageId id, const DataNode& node);
  Result<SRNode> ReadIndex(PageId id);
  Result<SRNode> DecodeIndex(const uint8_t* data, size_t size) const;
  Status WriteIndex(PageId id, const SRNode& node);
  Result<NodeKind> PeekKind(PageId id);

  /// Exact summary of a leaf (centroid of points, tight radius, live rect).
  SREntry SummarizeLeaf(const DataNode& node, PageId page) const;
  /// Exact summary of an index node from its entries.
  SREntry SummarizeIndex(const SRNode& node, PageId page) const;

  struct InsertOut {
    SREntry self;  // updated summary of the descended node
    bool split = false;
    SREntry sibling;  // valid when split
  };
  Result<InsertOut> InsertRec(PageId page, std::span<const float> point,
                              uint64_t id);

  /// SS-tree split: max-variance dimension, min total variance partition.
  template <typename GetCoord>
  static std::pair<std::vector<uint32_t>, std::vector<uint32_t>>
  VarianceSplit(size_t n, uint32_t dim, size_t min_count, GetCoord coord);

  Status CollectEntries(PageId page, std::vector<DataEntry>* out,
                        std::vector<PageId>* pages);
  Status ComputeStatsRec(PageId page, SrStats* stats, double* leaf_util);
  Status CheckInvariantsRec(PageId page, const SREntry& region, bool is_root,
                            uint32_t expected_level, uint64_t* entries_seen);

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
};

/// Serialized SR-tree index page kind byte.
inline constexpr uint8_t kSrIndexKind = 5;

}  // namespace ht

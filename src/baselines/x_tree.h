// Copyright 2026 The HybridTree Authors.
// X-tree (Berchtold, Keim, Kriegel, VLDB 1996): the other DP-based
// high-dimensional structure the paper's classification discusses (§2).
// An R-tree variant that refuses to create badly-overlapping directory
// nodes: when neither the topological (R*) split nor an overlap-free split
// is acceptable, the node becomes a SUPERNODE — it grows by another page
// instead of splitting. At high dimensionality supernodes proliferate and
// the X-tree gracefully degrades toward a sequential scan (each supernode
// read costs its chain length in accesses), which is exactly the behaviour
// its authors report and a nice measured contrast to the hybrid tree.
//
// Nodes are chains of fixed-size pages: {kind, level, count, next} per
// page. Reading a node fetches the whole chain (one logical access per
// page). Deletion is plain entry removal (no rebalancing), matching the
// evaluation needs; the original paper treats deletes as future work too.

#pragma once

#include <memory>

#include "baselines/spatial_index.h"
#include "core/node.h"
#include "storage/paged_file.h"

namespace ht {

struct XTreeStats {
  uint64_t leaf_nodes = 0;
  uint64_t dir_nodes = 0;
  uint64_t supernodes = 0;      // nodes with chain length > 1
  uint64_t max_chain_pages = 1;
  uint64_t total_pages = 0;
  double avg_dir_fanout = 0.0;
};

class XTree final : public SpatialIndex {
 public:
  static Result<std::unique_ptr<XTree>> Create(uint32_t dim, PagedFile* file);

  std::string Name() const override { return "X-tree"; }
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

  Result<XTreeStats> ComputeStats();
  Status CheckInvariants();

  size_t leaf_entries_per_page() const { return leaf_per_page_; }
  size_t dir_entries_per_page() const { return dir_per_page_; }

 private:
  /// In-memory node: either leaf entries (points) or directory entries.
  struct DirEntry {
    Box br;
    PageId child = kInvalidPageId;
  };
  struct Node {
    uint8_t level = 0;  // 0 = leaf
    std::vector<DataEntry> points;   // level == 0
    std::vector<DirEntry> children;  // level > 0
    size_t entry_count() const {
      return level == 0 ? points.size() : children.size();
    }
  };

  /// How the shared query loops (tree_search.h) read this tree.
  struct Nav;

  XTree(uint32_t dim, PagedFile* file);

  /// Max pages a node may grow to before a split is forced regardless of
  /// overlap (bounds worst-case chain reads).
  static constexpr size_t kMaxChainPages = 16;
  /// Directory splits whose halves overlap more than this fraction of
  /// their union volume become supernodes instead (X-tree's MAX_OVERLAP).
  static constexpr double kMaxOverlap = 0.2;

  Result<Node> ReadNode(PageId first);
  /// Writes `node` into the chain starting at `first`, growing or
  /// shrinking the chain as needed.
  Status WriteNode(PageId first, const Node& node);

  size_t PagesNeeded(const Node& node) const;

  struct SplitOut {
    bool split = false;
    Box left_br;
    Box right_br;
    PageId right_page = kInvalidPageId;
  };
  Result<SplitOut> InsertRec(PageId page, std::span<const float> point,
                             uint64_t id);
  /// Attempts a split; returns split=false when the node should become (or
  /// stay) a supernode.
  Result<SplitOut> MaybeSplit(PageId page, Node& node);

  Box NodeBr(const Node& node) const;
  size_t ChooseSubtree(const Node& node, std::span<const float> point) const;

  Status ComputeStatsRec(PageId page, XTreeStats* stats, double* fanout_sum);
  Status CheckInvariantsRec(PageId page, const Box& br, bool is_root,
                            uint64_t* seen);

  uint32_t dim_;
  size_t page_size_;
  std::unique_ptr<BufferPool> pool_;
  size_t leaf_per_page_ = 0;
  size_t dir_per_page_ = 0;
  PageId root_ = kInvalidPageId;
  uint64_t count_ = 0;
};

/// Serialized X-tree page kind byte.
inline constexpr uint8_t kXNodeKind = 6;

}  // namespace ht

#include "baselines/sr_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "baselines/tree_search.h"
#include "common/codec.h"

namespace ht {

namespace {
constexpr size_t kHeaderBytes = 4;

double Dist2(std::span<const float> a, std::span<const float> b) {
  double s = 0.0;
  for (size_t d = 0; d < a.size(); ++d) {
    const double diff = static_cast<double>(a[d]) - b[d];
    s += diff * diff;
  }
  return std::sqrt(s);
}
}  // namespace

SrTree::SrTree(uint32_t dim, PagedFile* file)
    : dim_(dim),
      page_size_(file->page_size()),
      pool_(std::make_unique<BufferPool>(file, 0)) {
  leaf_capacity_ = DataNode::Capacity(dim, page_size_);
  // rect (8*dim) + center (4*dim) + radius(4) + weight(4) + child(4).
  index_capacity_ =
      (page_size_ - kHeaderBytes) / (12 * static_cast<size_t>(dim) + 12);
  leaf_min_ = std::max<size_t>(1, static_cast<size_t>(0.4 * leaf_capacity_));
  index_min_ = std::max<size_t>(2, static_cast<size_t>(0.4 * index_capacity_));
  if (2 * leaf_min_ > leaf_capacity_) leaf_min_ = leaf_capacity_ / 2;
  if (2 * index_min_ > index_capacity_) index_min_ = index_capacity_ / 2;
}

Result<std::unique_ptr<SrTree>> SrTree::Create(uint32_t dim, PagedFile* file) {
  if (file->page_count() != 0) {
    return Status::InvalidArgument("SrTree::Create requires an empty file");
  }
  auto tree = std::unique_ptr<SrTree>(new SrTree(dim, file));
  if (tree->leaf_capacity_ < 4 || tree->index_capacity_ < 4) {
    return Status::InvalidArgument(
        "page too small for an SR-tree node at this dimensionality");
  }
  HT_ASSIGN_OR_RETURN(PageHandle h, tree->pool_->New());
  tree->root_ = h.id();
  DataNode empty;
  empty.Serialize(h.data(), h.size(), dim);
  h.MarkDirty();
  return tree;
}

// --- node I/O ---------------------------------------------------------------

Result<NodeKind> SrTree::PeekKind(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return PeekNodeKind(h.data());
}

Result<DataNode> SrTree::ReadLeaf(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return DataNode::Deserialize(h.data(), h.size(), dim_);
}

Status SrTree::WriteLeaf(PageId id, const DataNode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  node.Serialize(h.data(), h.size(), dim_);
  h.MarkDirty();
  return Status::OK();
}

Result<SrTree::SRNode> SrTree::ReadIndex(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return DecodeIndex(h.data(), h.size());
}

Result<SrTree::SRNode> SrTree::DecodeIndex(const uint8_t* data,
                                           size_t size) const {
  Reader r(data, size);
  if (r.GetU8() != kSrIndexKind) {
    return Status::Corruption("expected SR-tree index page");
  }
  SRNode node;
  node.level = r.GetU8();
  const uint16_t n = r.GetU16();
  node.entries.resize(n);
  for (uint16_t i = 0; i < n; ++i) {
    SREntry& e = node.entries[i];
    std::vector<float> lo(dim_), hi(dim_);
    for (uint32_t d = 0; d < dim_; ++d) lo[d] = r.GetF32();
    for (uint32_t d = 0; d < dim_; ++d) hi[d] = r.GetF32();
    e.rect = Box::FromBounds(std::move(lo), std::move(hi));
    e.center.resize(dim_);
    for (uint32_t d = 0; d < dim_; ++d) e.center[d] = r.GetF32();
    e.radius = r.GetF32();
    e.weight = r.GetU32();
    e.child = r.GetU32();
  }
  HT_RETURN_NOT_OK(r.status());
  return node;
}

Status SrTree::WriteIndex(PageId id, const SRNode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  Writer w(h.data(), h.size());
  w.PutU8(kSrIndexKind);
  w.PutU8(node.level);
  w.PutU16(static_cast<uint16_t>(node.entries.size()));
  for (const auto& e : node.entries) {
    for (uint32_t d = 0; d < dim_; ++d) w.PutF32(e.rect.lo(d));
    for (uint32_t d = 0; d < dim_; ++d) w.PutF32(e.rect.hi(d));
    for (uint32_t d = 0; d < dim_; ++d) w.PutF32(e.center[d]);
    w.PutF32(e.radius);
    w.PutU32(e.weight);
    w.PutU32(e.child);
  }
  h.MarkDirty();
  return Status::OK();
}

// --- summaries --------------------------------------------------------------

SrTree::SREntry SrTree::SummarizeLeaf(const DataNode& node,
                                      PageId page) const {
  SREntry e;
  e.child = page;
  e.weight = static_cast<uint32_t>(node.entries.size());
  e.rect = node.ComputeLiveBr(dim_);
  e.center.assign(dim_, 0.0f);
  if (node.entries.empty()) return e;
  std::vector<double> acc(dim_, 0.0);
  for (const auto& de : node.entries) {
    for (uint32_t d = 0; d < dim_; ++d) acc[d] += de.vec[d];
  }
  for (uint32_t d = 0; d < dim_; ++d) {
    e.center[d] = static_cast<float>(acc[d] / node.entries.size());
  }
  double r = 0.0;
  for (const auto& de : node.entries) {
    r = std::max(r, Dist2(e.center, de.vec));
  }
  // Small epsilon absorbs float32 rounding of the stored center.
  e.radius = static_cast<float>(r) + 1e-6f;
  return e;
}

SrTree::SREntry SrTree::SummarizeIndex(const SRNode& node,
                                       PageId page) const {
  HT_CHECK(!node.entries.empty());
  SREntry e;
  e.child = page;
  e.rect = node.entries[0].rect;
  uint64_t total = 0;
  std::vector<double> acc(dim_, 0.0);
  for (const auto& c : node.entries) {
    e.rect.ExtendToInclude(c.rect);
    total += c.weight;
    for (uint32_t d = 0; d < dim_; ++d) {
      acc[d] += static_cast<double>(c.center[d]) * c.weight;
    }
  }
  e.weight = static_cast<uint32_t>(total);
  e.center.resize(dim_);
  for (uint32_t d = 0; d < dim_; ++d) {
    e.center[d] = static_cast<float>(total ? acc[d] / total : 0.0);
  }
  double r = 0.0;
  for (const auto& c : node.entries) {
    r = std::max(r, Dist2(e.center, c.center) + c.radius);
  }
  e.radius = static_cast<float>(r) + 1e-6f;
  return e;
}

// --- insertion --------------------------------------------------------------

template <typename GetCoord>
std::pair<std::vector<uint32_t>, std::vector<uint32_t>> SrTree::VarianceSplit(
    size_t n, uint32_t dim, size_t min_count, GetCoord coord) {
  // Dimension with maximal variance of the member coordinates.
  uint32_t best_dim = 0;
  double best_var = -1.0;
  for (uint32_t d = 0; d < dim; ++d) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) mean += coord(i, d);
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double diff = coord(i, d) - mean;
      var += diff * diff;
    }
    if (var > best_var) {
      best_var = var;
      best_dim = d;
    }
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return coord(a, best_dim) < coord(b, best_dim);
  });
  // Split position minimizing the summed per-group variance along best_dim.
  size_t best_k = min_count;
  double best_cost = std::numeric_limits<double>::max();
  for (size_t k = min_count; k + min_count <= n; ++k) {
    double cost = 0.0;
    for (int side = 0; side < 2; ++side) {
      const size_t lo = side == 0 ? 0 : k;
      const size_t hi = side == 0 ? k : n;
      double mean = 0.0;
      for (size_t i = lo; i < hi; ++i) mean += coord(order[i], best_dim);
      mean /= static_cast<double>(hi - lo);
      for (size_t i = lo; i < hi; ++i) {
        const double diff = coord(order[i], best_dim) - mean;
        cost += diff * diff;
      }
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_k = k;
    }
  }
  return {std::vector<uint32_t>(order.begin(),
                                order.begin() + static_cast<long>(best_k)),
          std::vector<uint32_t>(order.begin() + static_cast<long>(best_k),
                                order.end())};
}

Status SrTree::Insert(std::span<const float> point, uint64_t id) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (!InUnitCube(point)) {
    return Status::InvalidArgument("point outside [0,1]^dim");
  }
  HT_ASSIGN_OR_RETURN(InsertOut out, InsertRec(root_, point, id));
  if (out.split) {
    SRNode new_root;
    new_root.level = static_cast<uint8_t>(height_ + 1);
    new_root.entries.push_back(std::move(out.self));
    new_root.entries.push_back(std::move(out.sibling));
    HT_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
    const PageId new_root_page = h.id();
    h.Release();
    HT_RETURN_NOT_OK(WriteIndex(new_root_page, new_root));
    root_ = new_root_page;
    ++height_;
  }
  ++count_;
  return Status::OK();
}

Result<SrTree::InsertOut> SrTree::InsertRec(PageId page,
                                            std::span<const float> point,
                                            uint64_t id) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadLeaf(page));
    node.entries.push_back(
        DataEntry{id, std::vector<float>(point.begin(), point.end())});
    InsertOut out;
    if (node.entries.size() <= leaf_capacity_) {
      HT_RETURN_NOT_OK(WriteLeaf(page, node));
      out.self = SummarizeLeaf(node, page);
      return out;
    }
    auto [left_idx, right_idx] = VarianceSplit(
        node.entries.size(), dim_, leaf_min_,
        [&](size_t i, uint32_t d) { return node.entries[i].vec[d]; });
    DataNode left, right;
    for (uint32_t i : left_idx) left.entries.push_back(std::move(node.entries[i]));
    for (uint32_t i : right_idx) {
      right.entries.push_back(std::move(node.entries[i]));
    }
    HT_RETURN_NOT_OK(WriteLeaf(page, left));
    HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
    right.Serialize(rh.data(), rh.size(), dim_);
    rh.MarkDirty();
    out.split = true;
    out.self = SummarizeLeaf(left, page);
    out.sibling = SummarizeLeaf(right, rh.id());
    return out;
  }

  HT_ASSIGN_OR_RETURN(SRNode node, ReadIndex(page));
  // SS-tree descent: nearest centroid.
  size_t j = 0;
  double best = std::numeric_limits<double>::max();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const double d = Dist2(node.entries[i].center, point);
    if (d < best) {
      best = d;
      j = i;
    }
  }
  HT_ASSIGN_OR_RETURN(InsertOut child,
                      InsertRec(node.entries[j].child, point, id));
  node.entries[j] = std::move(child.self);
  if (child.split) {
    node.entries.push_back(std::move(child.sibling));
  }
  InsertOut out;
  if (node.entries.size() <= index_capacity_) {
    HT_RETURN_NOT_OK(WriteIndex(page, node));
    out.self = SummarizeIndex(node, page);
    return out;
  }
  auto [left_idx, right_idx] = VarianceSplit(
      node.entries.size(), dim_, index_min_,
      [&](size_t i, uint32_t d) { return node.entries[i].center[d]; });
  SRNode left, right;
  left.level = right.level = node.level;
  for (uint32_t i : left_idx) left.entries.push_back(std::move(node.entries[i]));
  for (uint32_t i : right_idx) {
    right.entries.push_back(std::move(node.entries[i]));
  }
  HT_RETURN_NOT_OK(WriteIndex(page, left));
  HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  const PageId right_page = rh.id();
  rh.Release();
  HT_RETURN_NOT_OK(WriteIndex(right_page, right));
  out.split = true;
  out.self = SummarizeIndex(left, page);
  out.sibling = SummarizeIndex(right, right_page);
  return out;
}

// --- deletion ---------------------------------------------------------------

Status SrTree::Delete(std::span<const float> point, uint64_t id) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  struct Outcome {
    bool found = false;
    bool eliminate_me = false;
    SREntry self;
  };
  std::vector<DataEntry> orphans;
  std::function<Result<Outcome>(PageId)> rec =
      [&](PageId page) -> Result<Outcome> {
    Outcome out;
    HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
    if (kind == NodeKind::kData) {
      HT_ASSIGN_OR_RETURN(DataNode node, ReadLeaf(page));
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const auto& e = node.entries[i];
        if (e.id == id && std::equal(e.vec.begin(), e.vec.end(),
                                     point.begin(), point.end())) {
          node.entries.erase(node.entries.begin() + static_cast<long>(i));
          out.found = true;
          break;
        }
      }
      if (!out.found) return out;
      if (page != root_ && node.entries.size() < leaf_min_) {
        out.eliminate_me = true;
        for (auto& e : node.entries) orphans.push_back(std::move(e));
      } else {
        HT_RETURN_NOT_OK(WriteLeaf(page, node));
        out.self = SummarizeLeaf(node, page);
      }
      return out;
    }
    HT_ASSIGN_OR_RETURN(SRNode node, ReadIndex(page));
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const auto& e = node.entries[i];
      if (!e.rect.ContainsPoint(point)) continue;
      if (Dist2(e.center, point) > e.radius) continue;
      HT_ASSIGN_OR_RETURN(Outcome child, rec(e.child));
      if (!child.found) continue;
      out.found = true;
      if (child.eliminate_me) {
        HT_RETURN_NOT_OK(pool_->Free(node.entries[i].child));
        node.entries.erase(node.entries.begin() + static_cast<long>(i));
      } else {
        node.entries[i] = std::move(child.self);
      }
      if (page != root_ && node.entries.size() < index_min_) {
        out.eliminate_me = true;
        std::vector<PageId> pages;
        for (const auto& c : node.entries) {
          HT_RETURN_NOT_OK(CollectEntries(c.child, &orphans, &pages));
        }
        for (PageId p : pages) HT_RETURN_NOT_OK(pool_->Free(p));
      } else if (node.entries.empty()) {
        DataNode empty;
        HT_RETURN_NOT_OK(WriteLeaf(page, empty));
        height_ = 0;
      } else {
        HT_RETURN_NOT_OK(WriteIndex(page, node));
        out.self = SummarizeIndex(node, page);
      }
      return out;
    }
    return out;
  };
  HT_ASSIGN_OR_RETURN(Outcome out, rec(root_));
  if (!out.found) return Status::NotFound("no entry matches (point, id)");
  --count_;
  for (;;) {
    HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(root_));
    if (kind == NodeKind::kData) break;
    HT_ASSIGN_OR_RETURN(SRNode node, ReadIndex(root_));
    if (node.entries.size() != 1) break;
    const PageId child = node.entries[0].child;
    HT_RETURN_NOT_OK(pool_->Free(root_));
    root_ = child;
    --height_;
  }
  count_ -= orphans.size();
  for (auto& e : orphans) {
    HT_RETURN_NOT_OK(Insert(e.vec, e.id));
  }
  return Status::OK();
}

Status SrTree::CollectEntries(PageId page, std::vector<DataEntry>* out,
                              std::vector<PageId>* pages) {
  pages->push_back(page);
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadLeaf(page));
    for (auto& e : node.entries) out->push_back(std::move(e));
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(SRNode node, ReadIndex(page));
  for (const auto& e : node.entries) {
    HT_RETURN_NOT_OK(CollectEntries(e.child, out, pages));
  }
  return Status::OK();
}

// --- search -----------------------------------------------------------------

/// The SR-tree as tree_search.h reads it: one page per node, and a child's
/// region is its rectangle intersected with its bounding sphere.
struct SrTree::Nav {
  using Node = SRNode;
  using Region = tree_search::NoRegion;
  static constexpr bool kVisitOnce = false;

  SrTree* tree;

  PageId root() const { return tree->root_; }
  uint64_t size() const { return tree->count_; }
  static Region RootRegion() { return {}; }

  template <class OnRows, class OnDir>
  Status Read(PageId page, OnRows&& on_rows, OnDir&& on_dir) const {
    return tree_search::ReadPage(
        *tree->pool_, tree->dim_, page,
        [this](const uint8_t* data, size_t size) {
          return tree->DecodeIndex(data, size);
        },
        on_rows, on_dir);
  }

  template <class Emit>
  static Status BoxChildren(const SRNode& node, const Box& query,
                            Emit&& emit) {
    const L2Metric l2;
    for (const SREntry& e : node.entries) {
      if (!query.Intersects(e.rect)) continue;
      // Sphere check: a box whose Euclidean distance to the centroid
      // exceeds the radius cannot contain a member.
      if (l2.MinDistToBox(e.center, query) > e.radius) continue;
      HT_RETURN_NOT_OK(emit(e.child));
    }
    return Status::OK();
  }

  template <class Emit>
  static Status DistChildren(const SRNode& node, Region,
                             std::span<const float> center,
                             const DistanceMetric& metric, Emit&& emit) {
    for (const SREntry& e : node.entries) {
      const double bound =
          std::max(metric.MinDistToBox(center, e.rect),
                   metric.MinDistToSphere(center, e.center, e.radius));
      HT_RETURN_NOT_OK(emit(bound, e.child, Region{}));
    }
    return Status::OK();
  }
};

Result<std::vector<uint64_t>> SrTree::SearchBox(const Box& query) {
  return tree_search::SearchBox(Nav{this}, query);
}

Result<std::vector<uint64_t>> SrTree::SearchRange(
    std::span<const float> center, double radius,
    const DistanceMetric& metric) {
  return tree_search::SearchRange(Nav{this}, center, radius, metric);
}

Result<std::vector<std::pair<double, uint64_t>>> SrTree::SearchKnn(
    std::span<const float> center, size_t k, const DistanceMetric& metric) {
  return tree_search::SearchKnn(Nav{this}, center, k, metric);
}

// --- stats / invariants -----------------------------------------------------

Result<SrStats> SrTree::ComputeStats() {
  SrStats stats;
  stats.index_capacity = index_capacity_;
  double leaf_util = 0.0;
  HT_RETURN_NOT_OK(ComputeStatsRec(root_, &stats, &leaf_util));
  if (stats.data_nodes > 0) {
    stats.avg_leaf_utilization =
        leaf_util / static_cast<double>(stats.data_nodes);
  }
  if (stats.index_nodes > 0) {
    stats.avg_index_fanout /= static_cast<double>(stats.index_nodes);
  }
  return stats;
}

Status SrTree::ComputeStatsRec(PageId page, SrStats* stats,
                               double* leaf_util) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadLeaf(page));
    ++stats->data_nodes;
    *leaf_util += static_cast<double>(node.entries.size()) /
                  static_cast<double>(leaf_capacity_);
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(SRNode node, ReadIndex(page));
  ++stats->index_nodes;
  stats->avg_index_fanout += static_cast<double>(node.entries.size());
  for (const auto& e : node.entries) {
    HT_RETURN_NOT_OK(ComputeStatsRec(e.child, stats, leaf_util));
  }
  return Status::OK();
}

Status SrTree::CheckInvariants() {
  uint64_t entries_seen = 0;
  SREntry whole;
  whole.rect = Box::UnitCube(dim_);
  whole.center.assign(dim_, 0.5f);
  whole.radius = static_cast<float>(std::sqrt(static_cast<double>(dim_)));
  HT_RETURN_NOT_OK(
      CheckInvariantsRec(root_, whole, true, height_, &entries_seen));
  if (entries_seen != count_) {
    return Status::Corruption("SR entry count mismatch");
  }
  return Status::OK();
}

Status SrTree::CheckInvariantsRec(PageId page, const SREntry& region,
                                  bool is_root, uint32_t expected_level,
                                  uint64_t* entries_seen) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    if (expected_level != 0) {
      return Status::Corruption("SR leaf at nonzero level");
    }
    HT_ASSIGN_OR_RETURN(DataNode node, ReadLeaf(page));
    if (node.entries.size() > leaf_capacity_) {
      return Status::Corruption("SR leaf over capacity");
    }
    if (!is_root && node.entries.size() < leaf_min_) {
      return Status::Corruption("SR leaf under minimum fill");
    }
    for (const auto& e : node.entries) {
      if (!region.rect.ContainsPoint(e.vec)) {
        return Status::Corruption("SR entry outside rect");
      }
      if (Dist2(region.center, e.vec) > region.radius + 1e-4) {
        return Status::Corruption("SR entry outside sphere");
      }
    }
    *entries_seen += node.entries.size();
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(SRNode node, ReadIndex(page));
  if (node.level != expected_level) {
    return Status::Corruption("SR level mismatch");
  }
  if (node.entries.size() > index_capacity_) {
    return Status::Corruption("SR index node over capacity");
  }
  for (const auto& e : node.entries) {
    if (!region.rect.ContainsBox(e.rect)) {
      return Status::Corruption("SR child rect outside parent rect");
    }
    HT_RETURN_NOT_OK(
        CheckInvariantsRec(e.child, e, false, expected_level - 1,
                           entries_seen));
  }
  return Status::OK();
}

}  // namespace ht

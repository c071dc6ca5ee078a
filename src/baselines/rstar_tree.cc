#include "baselines/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "baselines/tree_search.h"
#include "common/codec.h"

namespace ht {

namespace {
constexpr size_t kIndexHeaderBytes = 4;  // kind u8, level u8, count u16
constexpr double kReinsertFraction = 0.3;

Box EntriesBr(const std::vector<RStarTree::IEntry>&);
}  // namespace

RStarTree::RStarTree(uint32_t dim, PagedFile* file)
    : dim_(dim),
      page_size_(file->page_size()),
      pool_(std::make_unique<BufferPool>(file, 0)) {
  leaf_capacity_ = DataNode::Capacity(dim, page_size_);
  // Index entry: 2*dim f32 box + u32 child. This is where DP-based
  // structures lose fanout at high dimensionality.
  index_capacity_ = (page_size_ - kIndexHeaderBytes) /
                    (2 * sizeof(float) * dim + sizeof(uint32_t));
  leaf_min_ = std::max<size_t>(1, static_cast<size_t>(0.4 * leaf_capacity_));
  index_min_ = std::max<size_t>(2, static_cast<size_t>(0.4 * index_capacity_));
  if (2 * leaf_min_ > leaf_capacity_) leaf_min_ = leaf_capacity_ / 2;
  if (2 * index_min_ > index_capacity_) index_min_ = index_capacity_ / 2;
}

Result<std::unique_ptr<RStarTree>> RStarTree::Create(uint32_t dim,
                                                     PagedFile* file) {
  if (file->page_count() != 0) {
    return Status::InvalidArgument("RStarTree::Create requires an empty file");
  }
  auto tree = std::unique_ptr<RStarTree>(new RStarTree(dim, file));
  if (tree->leaf_capacity_ < 4 || tree->index_capacity_ < 4) {
    return Status::InvalidArgument(
        "page too small for an R*-tree node at this dimensionality");
  }
  HT_ASSIGN_OR_RETURN(PageHandle h, tree->pool_->New());
  tree->root_ = h.id();
  DataNode empty;
  empty.Serialize(h.data(), h.size(), dim);
  h.MarkDirty();
  return tree;
}

// --- node I/O ---------------------------------------------------------------

Result<NodeKind> RStarTree::PeekKind(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return PeekNodeKind(h.data());
}

Result<DataNode> RStarTree::ReadLeaf(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return DataNode::Deserialize(h.data(), h.size(), dim_);
}

Status RStarTree::WriteLeaf(PageId id, const DataNode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  node.Serialize(h.data(), h.size(), dim_);
  h.MarkDirty();
  return Status::OK();
}

Result<RStarTree::INode> RStarTree::ReadIndex(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return DecodeIndex(h.data(), h.size());
}

Result<RStarTree::INode> RStarTree::DecodeIndex(const uint8_t* data,
                                                size_t size) const {
  Reader r(data, size);
  if (r.GetU8() != kRIndexKind) {
    return Status::Corruption("expected R-tree index page");
  }
  INode node;
  node.level = r.GetU8();
  const uint16_t n = r.GetU16();
  node.entries.resize(n);
  for (uint16_t i = 0; i < n; ++i) {
    std::vector<float> lo(dim_), hi(dim_);
    for (uint32_t d = 0; d < dim_; ++d) lo[d] = r.GetF32();
    for (uint32_t d = 0; d < dim_; ++d) hi[d] = r.GetF32();
    node.entries[i].br = Box::FromBounds(std::move(lo), std::move(hi));
    node.entries[i].child = r.GetU32();
  }
  HT_RETURN_NOT_OK(r.status());
  return node;
}

Status RStarTree::WriteIndex(PageId id, const INode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  Writer w(h.data(), h.size());
  w.PutU8(kRIndexKind);
  w.PutU8(node.level);
  w.PutU16(static_cast<uint16_t>(node.entries.size()));
  for (const auto& e : node.entries) {
    for (uint32_t d = 0; d < dim_; ++d) w.PutF32(e.br.lo(d));
    for (uint32_t d = 0; d < dim_; ++d) w.PutF32(e.br.hi(d));
    w.PutU32(e.child);
  }
  h.MarkDirty();
  return Status::OK();
}

// --- insertion --------------------------------------------------------------

namespace {
Box EntriesBr(const std::vector<RStarTree::IEntry>& entries) {
  HT_CHECK(!entries.empty());
  Box br = entries[0].br;
  for (size_t i = 1; i < entries.size(); ++i) br.ExtendToInclude(entries[i].br);
  return br;
}
}  // namespace

size_t RStarTree::ChooseSubtree(const INode& node,
                                std::span<const float> point) const {
  HT_CHECK(!node.entries.empty());
  if (node.level == 1) {
    // Children are leaves: minimize overlap enlargement (R* refinement).
    size_t best = 0;
    double best_overlap = std::numeric_limits<double>::max();
    double best_area_delta = std::numeric_limits<double>::max();
    double best_area = std::numeric_limits<double>::max();
    for (size_t j = 0; j < node.entries.size(); ++j) {
      Box grown = node.entries[j].br;
      grown.ExtendToInclude(point);
      double overlap_delta = 0.0;
      for (size_t k = 0; k < node.entries.size(); ++k) {
        if (k == j) continue;
        overlap_delta += grown.OverlapVolume(node.entries[k].br) -
                         node.entries[j].br.OverlapVolume(node.entries[k].br);
      }
      const double area = node.entries[j].br.Volume();
      const double area_delta = grown.Volume() - area;
      if (std::tie(overlap_delta, area_delta, area) <
          std::tie(best_overlap, best_area_delta, best_area)) {
        best_overlap = overlap_delta;
        best_area_delta = area_delta;
        best_area = area;
        best = j;
      }
    }
    return best;
  }
  // Higher levels: minimize area enlargement, ties by area.
  size_t best = 0;
  double best_delta = std::numeric_limits<double>::max();
  double best_area = std::numeric_limits<double>::max();
  for (size_t j = 0; j < node.entries.size(); ++j) {
    const double area = node.entries[j].br.Volume();
    const double delta = node.entries[j].br.EnlargementForPoint(point);
    if (std::tie(delta, area) < std::tie(best_delta, best_area)) {
      best_delta = delta;
      best_area = area;
      best = j;
    }
  }
  return best;
}

/// Generic R* split over a set of boxes: returns the partition (indices)
/// minimizing margin-then-overlap-then-area.
namespace {
struct GenericSplit {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;
};

GenericSplit RStarSplitBoxes(const std::vector<Box>& boxes, size_t min_count) {
  const size_t n = boxes.size();
  const uint32_t dim = boxes[0].dim();
  HT_CHECK(n >= 2 * min_count);

  // Axis choice: minimum sum of margins across all distributions of both
  // sort orders.
  uint32_t best_axis = 0;
  bool best_axis_by_hi = false;
  double best_margin_sum = std::numeric_limits<double>::max();
  std::vector<uint32_t> order(n);
  for (uint32_t d = 0; d < dim; ++d) {
    for (int by_hi = 0; by_hi < 2; ++by_hi) {
      std::iota(order.begin(), order.end(), 0u);
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) {
                         return by_hi ? boxes[a].hi(d) < boxes[b].hi(d)
                                      : boxes[a].lo(d) < boxes[b].lo(d);
                       });
      // Prefix/suffix unions.
      std::vector<Box> prefix(n, boxes[order[0]]);
      for (size_t i = 1; i < n; ++i) {
        prefix[i] = prefix[i - 1];
        prefix[i].ExtendToInclude(boxes[order[i]]);
      }
      std::vector<Box> suffix(n, boxes[order[n - 1]]);
      for (size_t i = n - 1; i-- > 0;) {
        suffix[i] = suffix[i + 1];
        suffix[i].ExtendToInclude(boxes[order[i]]);
      }
      double margin_sum = 0.0;
      for (size_t k = min_count; k + min_count <= n; ++k) {
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_axis = d;
        best_axis_by_hi = by_hi != 0;
      }
    }
  }

  // Index choice on the winning axis/order: minimum overlap, ties area.
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return best_axis_by_hi ? boxes[a].hi(best_axis) < boxes[b].hi(best_axis)
                           : boxes[a].lo(best_axis) < boxes[b].lo(best_axis);
  });
  std::vector<Box> prefix(n, boxes[order[0]]);
  for (size_t i = 1; i < n; ++i) {
    prefix[i] = prefix[i - 1];
    prefix[i].ExtendToInclude(boxes[order[i]]);
  }
  std::vector<Box> suffix(n, boxes[order[n - 1]]);
  for (size_t i = n - 1; i-- > 0;) {
    suffix[i] = suffix[i + 1];
    suffix[i].ExtendToInclude(boxes[order[i]]);
  }
  size_t best_k = min_count;
  double best_overlap = std::numeric_limits<double>::max();
  double best_area = std::numeric_limits<double>::max();
  for (size_t k = min_count; k + min_count <= n; ++k) {
    const double overlap = prefix[k - 1].OverlapVolume(suffix[k]);
    const double area = prefix[k - 1].Volume() + suffix[k].Volume();
    if (std::tie(overlap, area) < std::tie(best_overlap, best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }
  GenericSplit out;
  out.left.assign(order.begin(), order.begin() + static_cast<long>(best_k));
  out.right.assign(order.begin() + static_cast<long>(best_k), order.end());
  return out;
}
}  // namespace

RStarTree::SplitOut RStarTree::SplitLeaf(DataNode& node, DataNode* right) {
  std::vector<Box> boxes;
  boxes.reserve(node.entries.size());
  for (const auto& e : node.entries) boxes.push_back(Box::FromPoint(e.vec));
  GenericSplit gs = RStarSplitBoxes(boxes, leaf_min_);
  DataNode left;
  for (uint32_t i : gs.left) left.entries.push_back(std::move(node.entries[i]));
  for (uint32_t i : gs.right) {
    right->entries.push_back(std::move(node.entries[i]));
  }
  node = std::move(left);
  SplitOut out;
  out.split = true;
  out.left_br = node.ComputeLiveBr(dim_);
  out.right_br = right->ComputeLiveBr(dim_);
  return out;
}

RStarTree::SplitOut RStarTree::SplitIndex(INode& node, INode* right) {
  std::vector<Box> boxes;
  boxes.reserve(node.entries.size());
  for (const auto& e : node.entries) boxes.push_back(e.br);
  GenericSplit gs = RStarSplitBoxes(boxes, index_min_);
  INode left;
  left.level = node.level;
  right->level = node.level;
  for (uint32_t i : gs.left) left.entries.push_back(std::move(node.entries[i]));
  for (uint32_t i : gs.right) {
    right->entries.push_back(std::move(node.entries[i]));
  }
  node = std::move(left);
  SplitOut out;
  out.split = true;
  out.left_br = EntriesBr(node.entries);
  out.right_br = EntriesBr(right->entries);
  return out;
}

Status RStarTree::Insert(std::span<const float> point, uint64_t id) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (!InUnitCube(point)) {
    return Status::InvalidArgument("point outside [0,1]^dim");
  }
  InsertCtx ctx;
  DataEntry first{id, std::vector<float>(point.begin(), point.end())};
  ctx.pending.push_back(std::move(first));
  while (!ctx.pending.empty()) {
    DataEntry e = std::move(ctx.pending.back());
    ctx.pending.pop_back();
    HT_ASSIGN_OR_RETURN(SplitOut s, InsertRec(root_, e.vec, e.id, &ctx));
    if (s.split) {
      INode new_root;
      new_root.level = static_cast<uint8_t>(height_ + 1);
      new_root.entries.push_back(IEntry{s.left_br, root_});
      new_root.entries.push_back(IEntry{s.right_br, s.right_page});
      HT_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
      const PageId new_root_page = h.id();
      h.Release();
      HT_RETURN_NOT_OK(WriteIndex(new_root_page, new_root));
      root_ = new_root_page;
      ++height_;
    }
  }
  ++count_;
  return Status::OK();
}

Result<RStarTree::SplitOut> RStarTree::InsertRec(PageId page,
                                                 std::span<const float> point,
                                                 uint64_t id, InsertCtx* ctx) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadLeaf(page));
    node.entries.push_back(
        DataEntry{id, std::vector<float>(point.begin(), point.end())});
    if (node.entries.size() <= leaf_capacity_) {
      HT_RETURN_NOT_OK(WriteLeaf(page, node));
      SplitOut out;
      out.left_br = node.ComputeLiveBr(dim_);
      return out;
    }
    // Overflow treatment: forced reinsert once per insertion (R* §4.3),
    // never at the root.
    if (!ctx->leaf_reinsert_done && page != root_) {
      ctx->leaf_reinsert_done = true;
      ++reinsertions_;
      const Box br = node.ComputeLiveBr(dim_);
      std::vector<float> center(dim_);
      for (uint32_t d = 0; d < dim_; ++d) {
        center[d] = br.lo(d) + br.Extent(d) / 2;
      }
      L2Metric l2;
      std::stable_sort(node.entries.begin(), node.entries.end(),
                       [&](const DataEntry& a, const DataEntry& b) {
                         return l2.Distance(a.vec, center) >
                                l2.Distance(b.vec, center);
                       });
      const size_t p = std::max<size_t>(
          1, static_cast<size_t>(kReinsertFraction * node.entries.size()));
      for (size_t i = 0; i < p; ++i) {
        ctx->pending.push_back(std::move(node.entries[i]));
      }
      node.entries.erase(node.entries.begin(),
                         node.entries.begin() + static_cast<long>(p));
      HT_RETURN_NOT_OK(WriteLeaf(page, node));
      SplitOut out;
      out.left_br = node.ComputeLiveBr(dim_);
      out.reinserting = true;
      return out;
    }
    ++splits_;
    DataNode right;
    SplitOut out = SplitLeaf(node, &right);
    HT_RETURN_NOT_OK(WriteLeaf(page, node));
    HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
    right.Serialize(rh.data(), rh.size(), dim_);
    rh.MarkDirty();
    out.right_page = rh.id();
    return out;
  }

  HT_ASSIGN_OR_RETURN(INode node, ReadIndex(page));
  const size_t j = ChooseSubtree(node, point);
  HT_ASSIGN_OR_RETURN(SplitOut cs,
                      InsertRec(node.entries[j].child, point, id, ctx));
  node.entries[j].br = cs.left_br;
  if (cs.split) {
    node.entries.push_back(IEntry{cs.right_br, cs.right_page});
  }
  if (node.entries.size() > index_capacity_) {
    ++splits_;
    INode right;
    SplitOut out = SplitIndex(node, &right);
    HT_RETURN_NOT_OK(WriteIndex(page, node));
    HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
    const PageId right_page = rh.id();
    rh.Release();
    HT_RETURN_NOT_OK(WriteIndex(right_page, right));
    out.right_page = right_page;
    return out;
  }
  HT_RETURN_NOT_OK(WriteIndex(page, node));
  SplitOut out;
  out.left_br = EntriesBr(node.entries);
  return out;
}

// --- deletion ---------------------------------------------------------------

Status RStarTree::Delete(std::span<const float> point, uint64_t id) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  struct Outcome {
    bool found = false;
    bool eliminate_me = false;
    Box br;
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
        out.br = node.ComputeLiveBr(dim_);
      }
      return out;
    }
    HT_ASSIGN_OR_RETURN(INode node, ReadIndex(page));
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (!node.entries[i].br.ContainsPoint(point)) continue;
      HT_ASSIGN_OR_RETURN(Outcome child, rec(node.entries[i].child));
      if (!child.found) continue;
      out.found = true;
      if (child.eliminate_me) {
        HT_RETURN_NOT_OK(pool_->Free(node.entries[i].child));
        node.entries.erase(node.entries.begin() + static_cast<long>(i));
      } else {
        node.entries[i].br = child.br;
      }
      if (page != root_ && node.entries.size() < index_min_) {
        out.eliminate_me = true;
        std::vector<PageId> pages;
        for (const auto& e : node.entries) {
          HT_RETURN_NOT_OK(CollectEntries(e.child, &orphans, &pages));
        }
        for (PageId p : pages) HT_RETURN_NOT_OK(pool_->Free(p));
      } else if (node.entries.empty()) {
        // Root index lost its last child: reset to an empty leaf.
        DataNode empty;
        HT_RETURN_NOT_OK(WriteLeaf(page, empty));
        height_ = 0;
      } else {
        HT_RETURN_NOT_OK(WriteIndex(page, node));
        out.br = EntriesBr(node.entries);
      }
      return out;
    }
    return out;
  };

  HT_ASSIGN_OR_RETURN(Outcome out, rec(root_));
  if (!out.found) return Status::NotFound("no entry matches (point, id)");
  --count_;
  // Shrink the root while it is an index node with a single child.
  for (;;) {
    HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(root_));
    if (kind == NodeKind::kData) break;
    HT_ASSIGN_OR_RETURN(INode node, ReadIndex(root_));
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

Status RStarTree::CollectEntries(PageId page, std::vector<DataEntry>* out,
                                 std::vector<PageId>* pages) {
  pages->push_back(page);
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadLeaf(page));
    for (auto& e : node.entries) out->push_back(std::move(e));
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(INode node, ReadIndex(page));
  for (const auto& e : node.entries) {
    HT_RETURN_NOT_OK(CollectEntries(e.child, out, pages));
  }
  return Status::OK();
}

// --- search -----------------------------------------------------------------

/// The R*-tree as tree_search.h reads it: one page per node, and a child is
/// admitted by its entry box.
struct RStarTree::Nav {
  using Node = INode;
  using Region = tree_search::NoRegion;
  static constexpr bool kVisitOnce = false;

  RStarTree* tree;

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
  static Status BoxChildren(const INode& node, const Box& query, Emit&& emit) {
    for (const IEntry& e : node.entries) {
      if (query.Intersects(e.br)) HT_RETURN_NOT_OK(emit(e.child));
    }
    return Status::OK();
  }

  template <class Emit>
  static Status DistChildren(const INode& node, Region,
                             std::span<const float> center,
                             const DistanceMetric& metric, Emit&& emit) {
    for (const IEntry& e : node.entries) {
      HT_RETURN_NOT_OK(
          emit(metric.MinDistToBox(center, e.br), e.child, Region{}));
    }
    return Status::OK();
  }
};

Result<std::vector<uint64_t>> RStarTree::SearchBox(const Box& query) {
  return tree_search::SearchBox(Nav{this}, query);
}

Result<std::vector<uint64_t>> RStarTree::SearchRange(
    std::span<const float> center, double radius,
    const DistanceMetric& metric) {
  return tree_search::SearchRange(Nav{this}, center, radius, metric);
}

Result<std::vector<std::pair<double, uint64_t>>> RStarTree::SearchKnn(
    std::span<const float> center, size_t k, const DistanceMetric& metric) {
  return tree_search::SearchKnn(Nav{this}, center, k, metric);
}

// --- stats / invariants -----------------------------------------------------

Result<RStarStats> RStarTree::ComputeStats() {
  RStarStats stats;
  stats.index_capacity = index_capacity_;
  stats.forced_reinsertions = reinsertions_;
  stats.splits = splits_;
  double leaf_util = 0.0, overlap_sum = 0.0;
  uint64_t overlap_nodes = 0;
  HT_RETURN_NOT_OK(ComputeStatsRec(root_, &stats, &leaf_util, &overlap_sum,
                                   &overlap_nodes));
  if (stats.data_nodes > 0) {
    stats.avg_leaf_utilization =
        leaf_util / static_cast<double>(stats.data_nodes);
  }
  if (stats.index_nodes > 0) {
    stats.avg_index_fanout /= static_cast<double>(stats.index_nodes);
  }
  if (overlap_nodes > 0) {
    stats.avg_sibling_overlap =
        overlap_sum / static_cast<double>(overlap_nodes);
  }
  return stats;
}

Status RStarTree::ComputeStatsRec(PageId page, RStarStats* stats,
                                  double* leaf_util, double* overlap_sum,
                                  uint64_t* overlap_nodes) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadLeaf(page));
    ++stats->data_nodes;
    *leaf_util += static_cast<double>(node.entries.size()) /
                  static_cast<double>(leaf_capacity_);
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(INode node, ReadIndex(page));
  ++stats->index_nodes;
  stats->avg_index_fanout += static_cast<double>(node.entries.size());
  if (node.entries.size() >= 2) {
    // Volumes underflow toward zero in high dimensions, so measure overlap
    // as the fraction of sibling pairs whose boxes intersect at all.
    size_t intersecting = 0, pairs = 0;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      for (size_t j = i + 1; j < node.entries.size(); ++j) {
        ++pairs;
        if (node.entries[i].br.Intersects(node.entries[j].br)) ++intersecting;
      }
    }
    *overlap_sum +=
        static_cast<double>(intersecting) / static_cast<double>(pairs);
    ++*overlap_nodes;
  }
  for (const auto& e : node.entries) {
    HT_RETURN_NOT_OK(
        ComputeStatsRec(e.child, stats, leaf_util, overlap_sum, overlap_nodes));
  }
  return Status::OK();
}

Status RStarTree::CheckInvariants() {
  uint64_t entries_seen = 0;
  HT_RETURN_NOT_OK(CheckInvariantsRec(root_, Box::UnitCube(dim_),
                                      /*is_root=*/true, height_,
                                      &entries_seen));
  if (entries_seen != count_) {
    return Status::Corruption("R* entry count mismatch");
  }
  return Status::OK();
}

Status RStarTree::CheckInvariantsRec(PageId page, const Box& br, bool is_root,
                                     uint32_t expected_level,
                                     uint64_t* entries_seen) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    if (expected_level != 0) {
      return Status::Corruption("R* leaf at nonzero level");
    }
    HT_ASSIGN_OR_RETURN(DataNode node, ReadLeaf(page));
    if (node.entries.size() > leaf_capacity_) {
      return Status::Corruption("R* leaf over capacity");
    }
    if (!is_root && node.entries.size() < leaf_min_) {
      return Status::Corruption("R* leaf under minimum fill");
    }
    for (const auto& e : node.entries) {
      if (!br.ContainsPoint(e.vec)) {
        return Status::Corruption("R* entry outside parent box");
      }
    }
    *entries_seen += node.entries.size();
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(INode node, ReadIndex(page));
  if (node.level != expected_level) {
    return Status::Corruption("R* level mismatch");
  }
  if (node.entries.size() > index_capacity_) {
    return Status::Corruption("R* index node over capacity");
  }
  if (!is_root && node.entries.size() < index_min_) {
    return Status::Corruption("R* index node under minimum fill");
  }
  for (const auto& e : node.entries) {
    if (!br.ContainsBox(e.br)) {
      return Status::Corruption("R* child box outside parent box");
    }
    HT_RETURN_NOT_OK(CheckInvariantsRec(e.child, e.br, false,
                                        expected_level - 1, entries_seen));
  }
  return Status::OK();
}

}  // namespace ht

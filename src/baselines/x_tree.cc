#include "baselines/x_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "baselines/tree_search.h"
#include "common/codec.h"

namespace ht {

namespace {
// Page header: kind u8, level u8, count u16 (entries in THIS page),
// next u32 (continuation page or kInvalidPageId).
constexpr size_t kXHeaderBytes = 8;

/// Log-volume of a box (underflow-safe); -inf for empty.
double LogVolume(const Box& b) {
  double s = 0.0;
  for (uint32_t d = 0; d < b.dim(); ++d) {
    const double e = b.Extent(d);
    if (e <= 0.0) return -std::numeric_limits<double>::infinity();
    s += std::log(e);
  }
  return s;
}

/// overlap(l, r) / volume(union box of both) computed in log space.
double OverlapRatio(const Box& l, const Box& r) {
  const Box inter = l.Intersection(r);
  if (inter.IsEmpty()) return 0.0;
  Box uni = l;
  uni.ExtendToInclude(r);
  const double li = LogVolume(inter);
  const double lu = LogVolume(uni);
  if (!std::isfinite(lu)) {
    // Degenerate union (e.g., identical points): the groups coincide along
    // some dimension. Inseparable iff the intersection is just as
    // degenerate.
    return std::isfinite(li) ? 0.0 : 1.0;
  }
  if (!std::isfinite(li)) return 0.0;
  return std::exp(li - lu);
}
}  // namespace

XTree::XTree(uint32_t dim, PagedFile* file)
    : dim_(dim),
      page_size_(file->page_size()),
      pool_(std::make_unique<BufferPool>(file, 0)) {
  leaf_per_page_ = (page_size_ - kXHeaderBytes) / (8 + 4 * size_t{dim});
  dir_per_page_ =
      (page_size_ - kXHeaderBytes) / (8 * size_t{dim} + sizeof(uint32_t));
}

Result<std::unique_ptr<XTree>> XTree::Create(uint32_t dim, PagedFile* file) {
  if (file->page_count() != 0) {
    return Status::InvalidArgument("XTree::Create requires an empty file");
  }
  auto tree = std::unique_ptr<XTree>(new XTree(dim, file));
  if (tree->leaf_per_page_ < 4 || tree->dir_per_page_ < 2) {
    return Status::InvalidArgument("page too small for an X-tree node");
  }
  HT_ASSIGN_OR_RETURN(PageHandle h, tree->pool_->New());
  tree->root_ = h.id();
  h.Release();
  Node empty;
  HT_RETURN_NOT_OK(tree->WriteNode(tree->root_, empty));
  return tree;
}

// --- chain I/O ---------------------------------------------------------------

Result<XTree::Node> XTree::ReadNode(PageId first) {
  Node node;
  PageId page = first;
  bool got_level = false;
  while (page != kInvalidPageId) {
    HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
    Reader r(h.data(), h.size());
    if (r.GetU8() != kXNodeKind) {
      return Status::Corruption("expected X-tree page");
    }
    const uint8_t level = r.GetU8();
    const uint16_t count = r.GetU16();
    const PageId next = r.GetU32();
    if (!got_level) {
      node.level = level;
      got_level = true;
    } else if (node.level != level) {
      return Status::Corruption("X-tree chain level mismatch");
    }
    for (uint16_t i = 0; i < count; ++i) {
      if (node.level == 0) {
        DataEntry e;
        e.id = r.GetU64();
        e.vec.resize(dim_);
        for (uint32_t d = 0; d < dim_; ++d) e.vec[d] = r.GetF32();
        node.points.push_back(std::move(e));
      } else {
        std::vector<float> lo(dim_), hi(dim_);
        for (uint32_t d = 0; d < dim_; ++d) lo[d] = r.GetF32();
        for (uint32_t d = 0; d < dim_; ++d) hi[d] = r.GetF32();
        DirEntry e;
        e.br = Box::FromBounds(std::move(lo), std::move(hi));
        e.child = r.GetU32();
        node.children.push_back(std::move(e));
      }
    }
    HT_RETURN_NOT_OK(r.status());
    page = next;
  }
  return node;
}

size_t XTree::PagesNeeded(const Node& node) const {
  const size_t per = node.level == 0 ? leaf_per_page_ : dir_per_page_;
  return std::max<size_t>(1, (node.entry_count() + per - 1) / per);
}

Status XTree::WriteNode(PageId first, const Node& node) {
  const size_t per = node.level == 0 ? leaf_per_page_ : dir_per_page_;
  const size_t pages = PagesNeeded(node);
  // Walk/extend the chain, writing `per` entries per page.
  PageId page = first;
  PageId prev = kInvalidPageId;
  size_t written = 0;
  for (size_t p = 0; p < pages; ++p) {
    if (page == kInvalidPageId) {
      HT_ASSIGN_OR_RETURN(PageHandle nh, pool_->New());
      page = nh.id();
      nh.Release();
      // Link from the previous page.
      HT_ASSIGN_OR_RETURN(PageHandle ph, pool_->Fetch(prev));
      Writer lw(ph.data() + 4, 4);
      lw.PutU32(page);
      ph.MarkDirty();
    }
    HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
    // Read current next pointer before overwriting.
    Reader pr(h.data(), h.size());
    pr.GetU8();
    pr.GetU8();
    pr.GetU16();
    PageId old_next = pr.GetU32();
    if (h.data()[0] != kXNodeKind) old_next = kInvalidPageId;  // fresh page

    const size_t take = std::min(per, node.entry_count() - written);
    Writer w(h.data(), h.size());
    w.PutU8(kXNodeKind);
    w.PutU8(node.level);
    w.PutU16(static_cast<uint16_t>(take));
    const bool last = (p + 1 == pages);
    w.PutU32(last ? kInvalidPageId : old_next);
    for (size_t i = 0; i < take; ++i, ++written) {
      if (node.level == 0) {
        const DataEntry& e = node.points[written];
        w.PutU64(e.id);
        for (uint32_t d = 0; d < dim_; ++d) w.PutF32(e.vec[d]);
      } else {
        const DirEntry& e = node.children[written];
        for (uint32_t d = 0; d < dim_; ++d) w.PutF32(e.br.lo(d));
        for (uint32_t d = 0; d < dim_; ++d) w.PutF32(e.br.hi(d));
        w.PutU32(e.child);
      }
    }
    h.MarkDirty();
    prev = page;
    page = last ? old_next : old_next;
    if (last) {
      // Free any surplus tail pages from a previously longer chain.
      PageId tail = old_next;
      while (tail != kInvalidPageId) {
        HT_ASSIGN_OR_RETURN(PageHandle th, pool_->Fetch(tail));
        Reader tr(th.data(), th.size());
        tr.GetU8();
        tr.GetU8();
        tr.GetU16();
        const PageId nxt = tr.GetU32();
        th.Release();
        HT_RETURN_NOT_OK(pool_->Free(tail));
        tail = nxt;
      }
      break;
    }
  }
  return Status::OK();
}

// --- insertion ---------------------------------------------------------------

Box XTree::NodeBr(const Node& node) const {
  Box br = Box::Empty(dim_);
  if (node.level == 0) {
    for (const auto& e : node.points) br.ExtendToInclude(e.vec);
  } else {
    for (const auto& e : node.children) br.ExtendToInclude(e.br);
  }
  return br;
}

size_t XTree::ChooseSubtree(const Node& node,
                            std::span<const float> point) const {
  // Minimum margin enlargement, ties by smaller margin (volume-based
  // enlargement underflows at high d).
  size_t best = 0;
  double best_grow = std::numeric_limits<double>::max();
  double best_margin = std::numeric_limits<double>::max();
  for (size_t j = 0; j < node.children.size(); ++j) {
    const Box& b = node.children[j].br;
    double grow = 0.0;
    for (uint32_t d = 0; d < dim_; ++d) {
      if (point[d] < b.lo(d)) grow += b.lo(d) - point[d];
      if (point[d] > b.hi(d)) grow += point[d] - b.hi(d);
    }
    const double margin = b.Margin();
    if (std::tie(grow, margin) < std::tie(best_grow, best_margin)) {
      best_grow = grow;
      best_margin = margin;
      best = j;
    }
  }
  return best;
}

Result<XTree::SplitOut> XTree::MaybeSplit(PageId page, Node& node) {
  const size_t n = node.entry_count();
  const size_t min_fill = std::max<size_t>(
      1, n / 3);  // X-tree MIN_FANOUT ~ 35%

  // Candidate split: for each axis, sort by lo and take the best balanced
  // distribution; track the minimum overlap ratio found.
  std::vector<Box> boxes;
  boxes.reserve(n);
  if (node.level == 0) {
    for (const auto& e : node.points) boxes.push_back(Box::FromPoint(e.vec));
  } else {
    for (const auto& e : node.children) boxes.push_back(e.br);
  }
  double best_ratio = std::numeric_limits<double>::max();
  uint32_t best_axis = 0;
  size_t best_k = min_fill;
  std::vector<uint32_t> best_order;
  std::vector<uint32_t> order(n);
  for (uint32_t d = 0; d < dim_; ++d) {
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return boxes[a].lo(d) < boxes[b].lo(d);
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
    for (size_t k = min_fill; k + min_fill <= n; ++k) {
      const double ratio = OverlapRatio(prefix[k - 1], suffix[k]);
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best_axis = d;
        best_k = k;
        best_order = order;
      }
      if (best_ratio == 0.0 && best_axis == d) break;
    }
    (void)best_axis;
  }

  SplitOut out;
  const size_t chain = PagesNeeded(node);
  // A node whose best split still overlaps beyond MAX_OVERLAP becomes a
  // supernode (applies to leaves too: a page of near-identical points is
  // inseparable) — until the chain cap forces a split regardless.
  if (best_ratio > kMaxOverlap && chain < kMaxChainPages) {
    return out;  // no split: caller keeps the (super)node
  }

  Node left, right;
  left.level = right.level = node.level;
  for (size_t i = 0; i < n; ++i) {
    Node& side = i < best_k ? left : right;
    if (node.level == 0) {
      side.points.push_back(std::move(node.points[best_order[i]]));
    } else {
      side.children.push_back(std::move(node.children[best_order[i]]));
    }
  }
  HT_RETURN_NOT_OK(WriteNode(page, left));
  HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  const PageId right_page = rh.id();
  rh.Release();
  HT_RETURN_NOT_OK(WriteNode(right_page, right));
  out.split = true;
  out.left_br = NodeBr(left);
  out.right_br = NodeBr(right);
  out.right_page = right_page;
  return out;
}

Status XTree::Insert(std::span<const float> point, uint64_t id) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (!InUnitCube(point)) {
    return Status::InvalidArgument("point outside [0,1]^dim");
  }
  HT_ASSIGN_OR_RETURN(SplitOut s, InsertRec(root_, point, id));
  if (s.split) {
    HT_ASSIGN_OR_RETURN(Node old_root, ReadNode(root_));
    Node new_root;
    new_root.level = static_cast<uint8_t>(old_root.level + 1);
    new_root.children.push_back(DirEntry{s.left_br, root_});
    new_root.children.push_back(DirEntry{s.right_br, s.right_page});
    HT_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
    const PageId new_root_page = h.id();
    h.Release();
    HT_RETURN_NOT_OK(WriteNode(new_root_page, new_root));
    root_ = new_root_page;
  }
  ++count_;
  return Status::OK();
}

Result<XTree::SplitOut> XTree::InsertRec(PageId page,
                                         std::span<const float> point,
                                         uint64_t id) {
  HT_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  if (node.level == 0) {
    node.points.push_back(
        DataEntry{id, std::vector<float>(point.begin(), point.end())});
    if (node.points.size() <= leaf_per_page_) {
      HT_RETURN_NOT_OK(WriteNode(page, node));
      return SplitOut{};
    }
    HT_ASSIGN_OR_RETURN(SplitOut s, MaybeSplit(page, node));
    if (!s.split) {
      HT_RETURN_NOT_OK(WriteNode(page, node));  // inseparable: grow chain
    }
    return s;
  }

  const size_t j = ChooseSubtree(node, point);
  HT_ASSIGN_OR_RETURN(SplitOut cs,
                      InsertRec(node.children[j].child, point, id));
  node.children[j].br.ExtendToInclude(point);
  if (cs.split) {
    node.children[j].br = cs.left_br;
    node.children.push_back(DirEntry{cs.right_br, cs.right_page});
  }
  if (node.children.size() > dir_per_page_) {
    HT_ASSIGN_OR_RETURN(SplitOut s, MaybeSplit(page, node));
    if (s.split) return s;
    // Supernode: keep everything in a longer chain.
  }
  HT_RETURN_NOT_OK(WriteNode(page, node));
  return SplitOut{};
}

// --- deletion ----------------------------------------------------------------

Status XTree::Delete(std::span<const float> point, uint64_t id) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  bool found = false;
  std::function<Status(PageId)> rec = [&](PageId page) -> Status {
    HT_ASSIGN_OR_RETURN(Node node, ReadNode(page));
    if (node.level == 0) {
      for (size_t i = 0; i < node.points.size(); ++i) {
        const auto& e = node.points[i];
        if (e.id == id && std::equal(e.vec.begin(), e.vec.end(),
                                     point.begin(), point.end())) {
          node.points.erase(node.points.begin() + static_cast<long>(i));
          found = true;
          return WriteNode(page, node);
        }
      }
      return Status::OK();
    }
    for (const auto& e : node.children) {
      if (!e.br.ContainsPoint(point)) continue;
      HT_RETURN_NOT_OK(rec(e.child));
      if (found) return Status::OK();
    }
    return Status::OK();
  };
  HT_RETURN_NOT_OK(rec(root_));
  if (!found) return Status::NotFound("no entry matches (point, id)");
  --count_;
  return Status::OK();
}

// --- search ------------------------------------------------------------------

/// The X-tree as tree_search.h reads it: a node is its whole page chain
/// (one access per page), and a child is admitted by its entry box.
struct XTree::Nav {
  using Node = XTree::Node;
  using Region = tree_search::NoRegion;
  static constexpr bool kVisitOnce = false;

  XTree* tree;

  PageId root() const { return tree->root_; }
  uint64_t size() const { return tree->count_; }
  static Region RootRegion() { return {}; }

  /// A leaf's points, read the way a DataPageScan reads a page.
  struct Rows {
    const std::vector<DataEntry>& points;
    size_t count() const { return points.size(); }
    std::span<const float> vec(size_t i) const { return points[i].vec; }
    uint64_t id(size_t i) const { return points[i].id; }
  };

  template <class OnRows, class OnDir>
  Status Read(PageId page, OnRows&& on_rows, OnDir&& on_dir) const {
    HT_ASSIGN_OR_RETURN(Node node, tree->ReadNode(page));
    if (node.level > 0) return on_dir(node);
    on_rows(Rows{node.points});
    return Status::OK();
  }

  template <class Emit>
  static Status BoxChildren(const Node& node, const Box& query, Emit&& emit) {
    for (const DirEntry& e : node.children) {
      if (query.Intersects(e.br)) HT_RETURN_NOT_OK(emit(e.child));
    }
    return Status::OK();
  }

  template <class Emit>
  static Status DistChildren(const Node& node, Region,
                             std::span<const float> center,
                             const DistanceMetric& metric, Emit&& emit) {
    for (const DirEntry& e : node.children) {
      HT_RETURN_NOT_OK(
          emit(metric.MinDistToBox(center, e.br), e.child, Region{}));
    }
    return Status::OK();
  }
};

Result<std::vector<uint64_t>> XTree::SearchBox(const Box& query) {
  return tree_search::SearchBox(Nav{this}, query);
}

Result<std::vector<uint64_t>> XTree::SearchRange(
    std::span<const float> center, double radius,
    const DistanceMetric& metric) {
  return tree_search::SearchRange(Nav{this}, center, radius, metric);
}

Result<std::vector<std::pair<double, uint64_t>>> XTree::SearchKnn(
    std::span<const float> center, size_t k, const DistanceMetric& metric) {
  return tree_search::SearchKnn(Nav{this}, center, k, metric);
}

// --- stats / invariants --------------------------------------------------------

Result<XTreeStats> XTree::ComputeStats() {
  XTreeStats stats;
  double fanout_sum = 0.0;
  HT_RETURN_NOT_OK(ComputeStatsRec(root_, &stats, &fanout_sum));
  if (stats.dir_nodes > 0) {
    stats.avg_dir_fanout = fanout_sum / static_cast<double>(stats.dir_nodes);
  }
  return stats;
}

Status XTree::ComputeStatsRec(PageId page, XTreeStats* stats,
                              double* fanout_sum) {
  HT_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  const size_t pages = PagesNeeded(node);
  stats->total_pages += pages;
  if (pages > 1) ++stats->supernodes;
  stats->max_chain_pages = std::max<uint64_t>(stats->max_chain_pages, pages);
  if (node.level == 0) {
    ++stats->leaf_nodes;
    return Status::OK();
  }
  ++stats->dir_nodes;
  *fanout_sum += static_cast<double>(node.children.size());
  for (const auto& e : node.children) {
    HT_RETURN_NOT_OK(ComputeStatsRec(e.child, stats, fanout_sum));
  }
  return Status::OK();
}

Status XTree::CheckInvariants() {
  uint64_t seen = 0;
  HT_RETURN_NOT_OK(
      CheckInvariantsRec(root_, Box::UnitCube(dim_), true, &seen));
  if (seen != count_) return Status::Corruption("X-tree entry count mismatch");
  return Status::OK();
}

Status XTree::CheckInvariantsRec(PageId page, const Box& br, bool is_root,
                                 uint64_t* seen) {
  HT_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  if (node.level == 0) {
    for (const auto& e : node.points) {
      if (!br.ContainsPoint(e.vec)) {
        return Status::Corruption("X-tree entry outside parent box");
      }
    }
    *seen += node.points.size();
    return Status::OK();
  }
  if (node.children.empty() && !is_root) {
    return Status::Corruption("empty X-tree directory node");
  }
  for (const auto& e : node.children) {
    if (!br.ContainsBox(e.br)) {
      return Status::Corruption("X-tree child box outside parent box");
    }
    HT_RETURN_NOT_OK(CheckInvariantsRec(e.child, e.br, false, seen));
  }
  return Status::OK();
}

}  // namespace ht

#include "baselines/kdb_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

namespace ht {

KdbTree::KdbTree(uint32_t dim, PagedFile* file)
    : dim_(dim),
      page_size_(file->page_size()),
      pool_(std::make_unique<BufferPool>(file, 0)) {
  data_capacity_ = DataNode::Capacity(dim, page_size_);
}

Result<std::unique_ptr<KdbTree>> KdbTree::Create(uint32_t dim,
                                                 PagedFile* file) {
  if (file->page_count() != 0) {
    return Status::InvalidArgument("KdbTree::Create requires an empty file");
  }
  if (DataNode::Capacity(dim, file->page_size()) < 4) {
    return Status::InvalidArgument("page too small for a KDB data node");
  }
  auto tree = std::unique_ptr<KdbTree>(new KdbTree(dim, file));
  HT_ASSIGN_OR_RETURN(PageHandle h, tree->pool_->New());
  tree->root_ = h.id();
  DataNode empty;
  empty.Serialize(h.data(), h.size(), dim);
  h.MarkDirty();
  return tree;
}

// --- node I/O ---------------------------------------------------------------

Result<NodeKind> KdbTree::PeekKind(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return PeekNodeKind(h.data());
}

Result<DataNode> KdbTree::ReadDataNode(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return DataNode::Deserialize(h.data(), h.size(), dim_);
}

Status KdbTree::WriteDataNode(PageId id, const DataNode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  node.Serialize(h.data(), h.size(), dim_);
  h.MarkDirty();
  return Status::OK();
}

Result<IndexNode> KdbTree::ReadIndexNode(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return IndexNode::Deserialize(h.data(), h.size(), /*els_in_page=*/false, 0, dim_);
}

Status KdbTree::WriteIndexNode(PageId id, const IndexNode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  node.Serialize(h.data(), h.size(), /*els_in_page=*/false, 0);
  h.MarkDirty();
  return Status::OK();
}

// --- insertion --------------------------------------------------------------

Status KdbTree::Insert(std::span<const float> point, uint64_t id) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (!InUnitCube(point)) {
    return Status::InvalidArgument("point outside [0,1]^dim");
  }
  const Box cube = Box::UnitCube(dim_);
  HT_ASSIGN_OR_RETURN(SplitResult s, InsertRec(root_, cube, point, id));
  if (s.split) {
    IndexNode new_root;
    new_root.level = 1;  // level is informational only for the KDB-tree
    new_root.root =
        KdNode::MakeInternal(s.dim, s.pos, s.pos, KdNode::MakeLeaf(root_),
                             KdNode::MakeLeaf(s.right_page));
    HT_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
    const PageId new_root_page = h.id();
    h.Release();
    HT_RETURN_NOT_OK(WriteIndexNode(new_root_page, new_root));
    root_ = new_root_page;
  }
  ++count_;
  return Status::OK();
}

Result<KdbTree::SplitResult> KdbTree::InsertRec(PageId page, const Box& br,
                                                std::span<const float> point,
                                                uint64_t id) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    node.entries.push_back(
        DataEntry{id, std::vector<float>(point.begin(), point.end())});
    if (node.entries.size() <= data_capacity_) {
      HT_RETURN_NOT_OK(WriteDataNode(page, node));
      return SplitResult{};
    }
    return SplitDataPage(page, node, br);
  }

  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  // Clean navigation: v <= pos goes left.
  KdNode* n = node.root.get();
  Box region = br;
  while (!n->IsLeaf()) {
    if (point[n->split_dim] <= n->lsp) {
      region = KdLeftBr(region, *n);
      n = n->left.get();
    } else {
      region = KdRightBr(region, *n);
      n = n->right.get();
    }
  }
  HT_ASSIGN_OR_RETURN(SplitResult cs, InsertRec(n->child, region, point, id));
  if (!cs.split) return SplitResult{};
  n->left = KdNode::MakeLeaf(n->child);
  n->right = KdNode::MakeLeaf(cs.right_page);
  n->split_dim = cs.dim;
  n->lsp = cs.pos;
  n->rsp = cs.pos;
  n->child = kInvalidPageId;
  if (node.SerializedSize(false) > page_size_) {
    return SplitIndexPage(page, node, br);
  }
  HT_RETURN_NOT_OK(WriteIndexNode(page, node));
  return SplitResult{};
}

Result<KdbTree::SplitResult> KdbTree::SplitDataPage(PageId page,
                                                    DataNode& node,
                                                    const Box& br) {
  // Max-extent dimension, median position — falling back across dimensions
  // when every position would leave a side empty (duplicates).
  std::vector<uint32_t> order(dim_);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return br.Extent(a) > br.Extent(b);
  });
  for (uint32_t d : order) {
    std::vector<float> vals;
    vals.reserve(node.entries.size());
    for (const auto& e : node.entries) vals.push_back(e.vec[d]);
    std::sort(vals.begin(), vals.end());
    const float pos = vals[vals.size() / 2 - 1];  // left gets v <= pos
    if (pos >= vals.back()) continue;             // right side would be empty
    // pos >= min value, so the left side is non-empty too; moving entries
    // out of `node` is safe from here on.
    DataNode left, right;
    for (auto& e : node.entries) {
      (e.vec[d] <= pos ? left : right).entries.push_back(std::move(e));
    }
    HT_RETURN_NOT_OK(WriteDataNode(page, left));
    HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
    right.Serialize(rh.data(), rh.size(), dim_);
    rh.MarkDirty();
    SplitResult out;
    out.split = true;
    out.dim = d;
    out.pos = pos;
    out.right_page = rh.id();
    return out;
  }
  return Status::Internal(
      "KDB-tree cannot split a page of identical points (clean splits only)");
}

Result<KdbTree::SplitResult> KdbTree::SplitIndexPage(PageId page,
                                                     IndexNode& node,
                                                     const Box& br) {
  // Candidate planes: the split positions already present in this node.
  // Pick the one closest to the middle of the region (normalized), which
  // minimizes elongation; cascades happen only for straddling subtrees.
  struct Candidate {
    uint32_t dim;
    float pos;
    double score;
  };
  std::vector<Candidate> candidates;
  std::function<void(const KdNode*)> collect = [&](const KdNode* n) {
    if (n->IsLeaf()) return;
    const double extent = br.Extent(n->split_dim);
    if (extent > 0) {
      const double mid = br.lo(n->split_dim) + extent / 2;
      candidates.push_back(Candidate{
          n->split_dim, n->lsp, std::fabs(n->lsp - mid) / extent});
    }
    collect(n->left.get());
    collect(n->right.get());
  };
  collect(node.root.get());
  if (candidates.empty()) {
    return Status::Internal("KDB index node with no split planes");
  }
  const auto best = std::min_element(
      candidates.begin(), candidates.end(),
      [](const Candidate& a, const Candidate& b) { return a.score < b.score; });

  HT_ASSIGN_OR_RETURN(CutParts parts,
                      CutKd(std::move(node.root), br, best->dim, best->pos));
  HT_CHECK(parts.left != nullptr && parts.right != nullptr);
  IndexNode left;
  left.level = node.level;
  left.root = std::move(parts.left);
  IndexNode right;
  right.level = node.level;
  right.root = std::move(parts.right);
  HT_RETURN_NOT_OK(WriteIndexNode(page, left));
  HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  const PageId right_page = rh.id();
  rh.Release();
  HT_RETURN_NOT_OK(WriteIndexNode(right_page, right));

  SplitResult out;
  out.split = true;
  out.dim = best->dim;
  out.pos = best->pos;
  out.right_page = right_page;
  return out;
}

Result<KdbTree::CutParts> KdbTree::CutKd(std::unique_ptr<KdNode> n,
                                         const Box& region, uint32_t dim,
                                         float pos) {
  CutParts out;
  if (region.hi(dim) <= pos) {
    out.left = std::move(n);
    return out;
  }
  if (region.lo(dim) >= pos) {
    out.right = std::move(n);
    return out;
  }
  if (n->IsLeaf()) {
    // Straddling child: forced cascading split (the KDB-tree's cost of
    // keeping partitions strictly disjoint).
    ++cascading_splits_;
    const PageId left_page = n->child;
    HT_ASSIGN_OR_RETURN(PageId right_page,
                        SplitSubtreePage(left_page, region, dim, pos));
    out.left = KdNode::MakeLeaf(left_page);
    out.right = KdNode::MakeLeaf(right_page);
    return out;
  }
  if (n->split_dim == dim && n->lsp == pos) {
    out.left = std::move(n->left);
    out.right = std::move(n->right);
    return out;
  }
  const Box left_region = KdLeftBr(region, *n);
  const Box right_region = KdRightBr(region, *n);
  const uint32_t ndim = n->split_dim;
  const float npos = n->lsp;
  HT_ASSIGN_OR_RETURN(CutParts l,
                      CutKd(std::move(n->left), left_region, dim, pos));
  HT_ASSIGN_OR_RETURN(CutParts r,
                      CutKd(std::move(n->right), right_region, dim, pos));
  auto combine = [&](std::unique_ptr<KdNode> a,
                     std::unique_ptr<KdNode> b) -> std::unique_ptr<KdNode> {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    return KdNode::MakeInternal(ndim, npos, npos, std::move(a), std::move(b));
  };
  out.left = combine(std::move(l.left), std::move(r.left));
  out.right = combine(std::move(l.right), std::move(r.right));
  return out;
}

Result<PageId> KdbTree::SplitSubtreePage(PageId page, const Box& region,
                                         uint32_t dim, float pos) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    DataNode left, right;
    for (auto& e : node.entries) {
      (e.vec[dim] <= pos ? left : right).entries.push_back(std::move(e));
    }
    // Either side may be empty — Robinson's "empty nodes".
    HT_RETURN_NOT_OK(WriteDataNode(page, left));
    HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
    right.Serialize(rh.data(), rh.size(), dim_);
    rh.MarkDirty();
    return rh.id();
  }
  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  HT_ASSIGN_OR_RETURN(CutParts parts,
                      CutKd(std::move(node.root), region, dim, pos));
  // Region straddles pos, but all content may still fall on one side; an
  // empty index node is represented as an empty data page.
  auto write_side = [&](std::unique_ptr<KdNode> part,
                        PageId target) -> Status {
    if (part == nullptr) {
      DataNode empty;
      return WriteDataNode(target, empty);
    }
    IndexNode side;
    side.level = node.level;
    side.root = std::move(part);
    return WriteIndexNode(target, side);
  };
  HT_RETURN_NOT_OK(write_side(std::move(parts.left), page));
  HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  const PageId right_page = rh.id();
  rh.Release();
  HT_RETURN_NOT_OK(write_side(std::move(parts.right), right_page));
  return right_page;
}

// --- deletion ---------------------------------------------------------------

Status KdbTree::Delete(std::span<const float> point, uint64_t id) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  // Clean partitions: the entry lives on exactly one root-to-leaf path.
  PageId page = root_;
  for (;;) {
    HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
    if (kind == NodeKind::kData) break;
    HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
    const KdNode* n = node.root.get();
    while (!n->IsLeaf()) {
      n = point[n->split_dim] <= n->lsp ? n->left.get() : n->right.get();
    }
    page = n->child;
  }
  HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const auto& e = node.entries[i];
    if (e.id == id && std::equal(e.vec.begin(), e.vec.end(), point.begin(),
                                 point.end())) {
      node.entries.erase(node.entries.begin() + static_cast<long>(i));
      HT_RETURN_NOT_OK(WriteDataNode(page, node));
      --count_;
      // No re-balancing: the KDB-tree offers no utilization guarantee.
      return Status::OK();
    }
  }
  return Status::NotFound("no entry matches (point, id)");
}

// --- search -----------------------------------------------------------------

Result<std::vector<uint64_t>> KdbTree::SearchBox(const Box& query) {
  return tree_search::SearchBox(Nav(), query);
}

Result<std::vector<uint64_t>> KdbTree::SearchRange(
    std::span<const float> center, double radius,
    const DistanceMetric& metric) {
  return tree_search::SearchRange(Nav(), center, radius, metric);
}

Result<std::vector<std::pair<double, uint64_t>>> KdbTree::SearchKnn(
    std::span<const float> center, size_t k, const DistanceMetric& metric) {
  return tree_search::SearchKnn(Nav(), center, k, metric);
}

// --- stats / invariants -----------------------------------------------------

Result<KdbStats> KdbTree::ComputeStats() {
  KdbStats stats;
  stats.cascading_splits = cascading_splits_;
  double util_sum = 0.0;
  HT_RETURN_NOT_OK(ComputeStatsRec(root_, &stats, &util_sum));
  if (stats.data_nodes > 0) {
    stats.avg_data_utilization =
        util_sum / static_cast<double>(stats.data_nodes);
  }
  if (stats.index_nodes > 0) {
    stats.avg_index_fanout /= static_cast<double>(stats.index_nodes);
  }
  return stats;
}

Status KdbTree::ComputeStatsRec(PageId page, KdbStats* stats,
                                double* util_sum) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    ++stats->data_nodes;
    if (node.entries.empty()) ++stats->empty_data_nodes;
    const double util = static_cast<double>(node.entries.size()) /
                        static_cast<double>(data_capacity_);
    *util_sum += util;
    if (page != root_ && util < stats->min_data_utilization) {
      stats->min_data_utilization = util;
    }
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  ++stats->index_nodes;
  stats->avg_index_fanout += static_cast<double>(node.NumChildren());
  std::vector<ChildRef> kids;
  node.CollectChildren(Box::UnitCube(dim_), &kids);
  for (const auto& kid : kids) {
    HT_RETURN_NOT_OK(ComputeStatsRec(kid.leaf->child, stats, util_sum));
  }
  return Status::OK();
}

Status KdbTree::CheckInvariants() {
  uint64_t entries_seen = 0;
  HT_RETURN_NOT_OK(
      CheckInvariantsRec(root_, Box::UnitCube(dim_), &entries_seen));
  if (entries_seen != count_) {
    return Status::Corruption("KDB entry count mismatch");
  }
  return Status::OK();
}

Status KdbTree::CheckInvariantsRec(PageId page, const Box& br,
                                   uint64_t* entries_seen) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    if (node.entries.size() > data_capacity_) {
      return Status::Corruption("KDB data node over capacity");
    }
    for (const auto& e : node.entries) {
      if (!br.ContainsPoint(e.vec)) {
        return Status::Corruption("KDB entry outside its region");
      }
    }
    *entries_seen += node.entries.size();
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  if (node.SerializedSize(false) > page_size_) {
    return Status::Corruption("KDB index node over page size");
  }
  std::function<Status(const KdNode*, const Box&)> walk =
      [&](const KdNode* n, const Box& nbr) -> Status {
    if (n->IsLeaf()) return CheckInvariantsRec(n->child, nbr, entries_seen);
    if (n->lsp != n->rsp) {
      return Status::Corruption("KDB split must be clean (lsp == rsp)");
    }
    HT_RETURN_NOT_OK(walk(n->left.get(), KdLeftBr(nbr, *n)));
    return walk(n->right.get(), KdRightBr(nbr, *n));
  };
  return walk(node.root.get(), br);
}

}  // namespace ht

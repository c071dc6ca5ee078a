#include "baselines/hb_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

namespace ht {

HbTree::HbTree(uint32_t dim, PagedFile* file)
    : dim_(dim),
      page_size_(file->page_size()),
      pool_(std::make_unique<BufferPool>(file, 0)) {
  data_capacity_ = DataNode::Capacity(dim, page_size_);
}

Result<std::unique_ptr<HbTree>> HbTree::Create(uint32_t dim, PagedFile* file) {
  if (file->page_count() != 0) {
    return Status::InvalidArgument("HbTree::Create requires an empty file");
  }
  if (DataNode::Capacity(dim, file->page_size()) < 4) {
    return Status::InvalidArgument("page too small for an hB data node");
  }
  auto tree = std::unique_ptr<HbTree>(new HbTree(dim, file));
  HT_ASSIGN_OR_RETURN(PageHandle h, tree->pool_->New());
  tree->root_ = h.id();
  DataNode empty;
  empty.Serialize(h.data(), h.size(), dim);
  h.MarkDirty();
  return tree;
}

// --- node I/O ---------------------------------------------------------------

Result<NodeKind> HbTree::PeekKind(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return PeekNodeKind(h.data());
}

Result<DataNode> HbTree::ReadDataNode(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return DataNode::Deserialize(h.data(), h.size(), dim_);
}

Status HbTree::WriteDataNode(PageId id, const DataNode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  node.Serialize(h.data(), h.size(), dim_);
  h.MarkDirty();
  return Status::OK();
}

Result<IndexNode> HbTree::ReadIndexNode(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return IndexNode::Deserialize(h.data(), h.size(), false, 0, dim_);
}

Status HbTree::WriteIndexNode(PageId id, const IndexNode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  node.Serialize(h.data(), h.size(), false, 0);
  h.MarkDirty();
  return Status::OK();
}

// --- split posting ----------------------------------------------------------

std::unique_ptr<KdNode> HbTree::BuildChain(const std::vector<Constraint>& path,
                                           PageId old_child, PageId new_child,
                                           size_t next) {
  if (next == path.size()) {
    return KdNode::MakeLeaf(new_child);
  }
  const Constraint& c = path[next];
  auto deeper = BuildChain(path, old_child, new_child, next + 1);
  auto keep = KdNode::MakeLeaf(old_child);
  if (c.extracted_is_left) {
    return KdNode::MakeInternal(c.dim, c.pos, c.pos, std::move(deeper),
                                std::move(keep));
  }
  return KdNode::MakeInternal(c.dim, c.pos, c.pos, std::move(keep),
                              std::move(deeper));
}

std::unique_ptr<KdNode> HbTree::BuildChainClipped(
    const std::vector<Constraint>& path, PageId old_child, PageId new_child,
    const Box& region, size_t next) {
  if (next == path.size()) {
    return KdNode::MakeLeaf(new_child);
  }
  const Constraint& c = path[next];
  if (c.extracted_is_left) {
    if (region.hi(c.dim) <= c.pos) {
      // The whole leaf region lies on the extracted side: the keep-side
      // test is redundant here; omitting it avoids creating a kd-leaf with
      // an empty region (a dead reference that would pollute later
      // subtree-extraction splits).
      return BuildChainClipped(path, old_child, new_child, region, next + 1);
    }
    if (region.lo(c.dim) > c.pos) {
      // Entirely on the keep side: nothing of this corner is reachable
      // through this leaf (can happen with boundary-touching regions).
      return KdNode::MakeLeaf(old_child);
    }
    Box deeper_region = region;
    deeper_region.set_hi(c.dim, c.pos);
    auto deeper =
        BuildChainClipped(path, old_child, new_child, deeper_region, next + 1);
    return KdNode::MakeInternal(c.dim, c.pos, c.pos, std::move(deeper),
                                KdNode::MakeLeaf(old_child));
  }
  if (region.lo(c.dim) > c.pos) {
    // Entirely on the extracted side (v > pos holds for every point; the
    // boundary v == pos belongs to the keep side, so strict comparison).
    return BuildChainClipped(path, old_child, new_child, region, next + 1);
  }
  if (region.hi(c.dim) <= c.pos) {
    return KdNode::MakeLeaf(old_child);
  }
  Box deeper_region = region;
  deeper_region.set_lo(c.dim, c.pos);
  auto deeper =
      BuildChainClipped(path, old_child, new_child, deeper_region, next + 1);
  return KdNode::MakeInternal(c.dim, c.pos, c.pos,
                              KdNode::MakeLeaf(old_child), std::move(deeper));
}

Box HbTree::CornerBox(const std::vector<Constraint>& path) const {
  Box corner = Box::UnitCube(dim_);
  for (const Constraint& c : path) {
    if (c.extracted_is_left) {
      if (c.pos < corner.hi(c.dim)) corner.set_hi(c.dim, c.pos);
    } else {
      if (c.pos > corner.lo(c.dim)) corner.set_lo(c.dim, c.pos);
    }
  }
  return corner;
}

size_t HbTree::GraftChains(IndexNode* node, PageId old_child,
                           const SplitInfo& info) {
  const Box corner = CornerBox(info.path);
  // Leaf regions computed from the unit cube over-approximate the true
  // regions (ancestor constraints live in higher tree levels), so the
  // intersection test is conservative: we may graft where unnecessary,
  // never skip where necessary.
  std::vector<ChildRef> kids;
  node->CollectChildren(Box::UnitCube(dim_), &kids);
  size_t grafts = 0;
  for (const ChildRef& kid : kids) {
    if (kid.leaf->child != old_child) continue;
    if (!kid.kd_br.Intersects(corner)) continue;
    auto chain = BuildChainClipped(info.path, old_child, info.new_page,
                                   kid.kd_br);
    if (chain->IsLeaf() && chain->child == old_child) continue;  // no cut
    KdNode* leaf = kid.leaf;
    if (chain->IsLeaf()) {
      // The whole leaf region lies inside the corner: the reference simply
      // moves to the new page.
      leaf->child = chain->child;
    } else {
      leaf->split_dim = chain->split_dim;
      leaf->lsp = chain->lsp;
      leaf->rsp = chain->rsp;
      leaf->left = std::move(chain->left);
      leaf->right = std::move(chain->right);
      leaf->child = kInvalidPageId;
    }
    ++grafts;
  }
  return grafts;
}

namespace {
std::unordered_set<PageId> DistinctChildren(const IndexNode& node,
                                            uint32_t dim) {
  std::vector<ChildRef> kids;
  node.CollectChildren(Box::UnitCube(dim), &kids);
  std::unordered_set<PageId> out;
  for (const auto& kid : kids) out.insert(kid.leaf->child);
  return out;
}

void AddParent(std::unordered_map<PageId, std::vector<PageId>>* parents,
               PageId child, PageId parent) {
  auto& v = (*parents)[child];
  if (std::find(v.begin(), v.end(), parent) == v.end()) v.push_back(parent);
}

void RemoveParent(std::unordered_map<PageId, std::vector<PageId>>* parents,
                  PageId child, PageId parent) {
  auto it = parents->find(child);
  if (it == parents->end()) return;
  auto& v = it->second;
  v.erase(std::remove(v.begin(), v.end(), parent), v.end());
}
}  // namespace

Status HbTree::PostSplit(PageId child, SplitInfo info) {
  if (child == root_) {
    IndexNode new_root;
    new_root.level = 1;
    new_root.root = BuildChain(info.path, child, info.new_page);
    HT_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
    const PageId new_root_page = h.id();
    h.Release();
    HT_RETURN_NOT_OK(WriteIndexNode(new_root_page, new_root));
    root_ = new_root_page;
    AddParent(&parents_, child, new_root_page);
    AddParent(&parents_, info.new_page, new_root_page);
    return Status::OK();
  }

  const std::vector<PageId> parent_list = parents_[child];
  HT_CHECK(!parent_list.empty());
  size_t total_grafts = 0;
  for (PageId p : parent_list) {
    HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(p));
    const size_t grafts = GraftChains(&node, child, info);
    if (grafts == 0) continue;  // this parent's regions avoid the corner
    total_grafts += grafts;
    AddParent(&parents_, info.new_page, p);
    if (!DistinctChildren(node, dim_).count(child)) {
      // Every reference moved wholesale into the corner side.
      RemoveParent(&parents_, child, p);
    }
    if (node.SerializedSize(false) > page_size_) {
      HT_ASSIGN_OR_RETURN(SplitInfo pinfo, SplitIndexNode(p, node));
      HT_RETURN_NOT_OK(PostSplit(p, std::move(pinfo)));
    } else {
      HT_RETURN_NOT_OK(WriteIndexNode(p, node));
    }
  }
  if (total_grafts == 0) {
    // A stale subtree (accumulated dead references) can yield a corner no
    // live route intersects. Fall back to grafting the full chain at every
    // reference in the first parent so the new page stays reachable.
    const PageId p = parent_list.front();
    HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(p));
    std::vector<ChildRef> kids;
    node.CollectChildren(Box::UnitCube(dim_), &kids);
    for (const ChildRef& kid : kids) {
      if (kid.leaf->child != child) continue;
      auto chain = BuildChain(info.path, child, info.new_page);
      KdNode* leaf = kid.leaf;
      leaf->split_dim = chain->split_dim;
      leaf->lsp = chain->lsp;
      leaf->rsp = chain->rsp;
      leaf->left = std::move(chain->left);
      leaf->right = std::move(chain->right);
      leaf->child = kInvalidPageId;
      ++total_grafts;
      break;
    }
    HT_CHECK(total_grafts >= 1);
    AddParent(&parents_, info.new_page, p);
    if (node.SerializedSize(false) > page_size_) {
      HT_ASSIGN_OR_RETURN(SplitInfo pinfo, SplitIndexNode(p, node));
      HT_RETURN_NOT_OK(PostSplit(p, std::move(pinfo)));
    } else {
      HT_RETURN_NOT_OK(WriteIndexNode(p, node));
    }
  }
  return Status::OK();
}

// --- insertion --------------------------------------------------------------

Status HbTree::Insert(std::span<const float> point, uint64_t id) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (!InUnitCube(point)) {
    return Status::InvalidArgument("point outside [0,1]^dim");
  }
  // Clean kd navigation to the unique data page for this point.
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
  node.entries.push_back(
      DataEntry{id, std::vector<float>(point.begin(), point.end())});
  if (node.entries.size() <= data_capacity_) {
    HT_RETURN_NOT_OK(WriteDataNode(page, node));
  } else {
    HT_ASSIGN_OR_RETURN(SplitInfo info, SplitDataNode(page, node));
    HT_RETURN_NOT_OK(PostSplit(page, std::move(info)));
  }
  ++count_;
  return Status::OK();
}

Result<HbTree::SplitInfo> HbTree::SplitDataNode(PageId page, DataNode& node) {
  // Iterated-median corner extraction: refine the candidate set S by
  // median splits (descending into the larger half) until its fraction is
  // within [1/3, 2/3] of the node.
  const size_t total = node.entries.size();
  std::vector<uint32_t> member(total);
  std::iota(member.begin(), member.end(), 0u);
  std::vector<Constraint> path;
  std::vector<float> vals;
  while (member.size() * 3 > total * 2) {
    Box sbr = Box::Empty(dim_);
    for (uint32_t i : member) sbr.ExtendToInclude(node.entries[i].vec);
    std::vector<uint32_t> dims(dim_);
    std::iota(dims.begin(), dims.end(), 0u);
    std::stable_sort(dims.begin(), dims.end(), [&](uint32_t a, uint32_t b) {
      return sbr.Extent(a) > sbr.Extent(b);
    });
    bool progressed = false;
    for (uint32_t d : dims) {
      vals.clear();
      for (uint32_t i : member) vals.push_back(node.entries[i].vec[d]);
      std::sort(vals.begin(), vals.end());
      const float pos = vals[vals.size() / 2 - 1];
      if (pos >= vals.back()) continue;  // all equal along d
      std::vector<uint32_t> left, right;
      for (uint32_t i : member) {
        (node.entries[i].vec[d] <= pos ? left : right).push_back(i);
      }
      const bool take_left = left.size() >= right.size();
      path.push_back(Constraint{d, pos, take_left});
      member = take_left ? std::move(left) : std::move(right);
      progressed = true;
      break;
    }
    if (!progressed) {
      return Status::Internal(
          "hB-tree cannot extract a corner from identical points");
    }
  }
  if (path.size() > 1) ++multi_step_splits_;

  std::vector<bool> extracted(total, false);
  for (uint32_t i : member) extracted[i] = true;
  DataNode keep, out;
  for (size_t i = 0; i < total; ++i) {
    (extracted[i] ? out : keep).entries.push_back(std::move(node.entries[i]));
  }
  HT_RETURN_NOT_OK(WriteDataNode(page, keep));
  HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  out.Serialize(rh.data(), rh.size(), dim_);
  rh.MarkDirty();
  SplitInfo info;
  info.path = std::move(path);
  info.new_page = rh.id();
  return info;
}

Result<HbTree::SplitInfo> HbTree::SplitIndexNode(PageId page,
                                                 IndexNode& node) {
  // Extract the kd-subtree whose leaf fraction lies in [1/3, 2/3],
  // recording the walk as the constraint path.
  std::function<size_t(const KdNode*)> leaf_count =
      [&](const KdNode* m) -> size_t {
    if (m->IsLeaf()) return 1;
    return leaf_count(m->left.get()) + leaf_count(m->right.get());
  };
  const size_t total = leaf_count(node.root.get());
  HT_CHECK(total >= 2);

  const std::unordered_set<PageId> old_children = DistinctChildren(node, dim_);

  std::vector<Constraint> path;
  KdNode* parent = nullptr;
  bool parent_took_left = false;
  KdNode* cur = node.root.get();
  size_t cur_leaves = total;
  while (cur_leaves * 3 > total * 2) {
    HT_CHECK(!cur->IsLeaf());
    const size_t left_leaves = leaf_count(cur->left.get());
    const size_t right_leaves = cur_leaves - left_leaves;
    const bool take_left = left_leaves >= right_leaves;
    path.push_back(Constraint{cur->split_dim, cur->lsp, take_left});
    parent = cur;
    parent_took_left = take_left;
    cur = take_left ? cur->left.get() : cur->right.get();
    cur_leaves = take_left ? left_leaves : right_leaves;
  }
  if (path.size() > 1) ++multi_step_splits_;
  HT_CHECK(parent != nullptr);

  // Detach the extracted subtree; the sibling takes the parent's place.
  std::unique_ptr<KdNode> sub =
      parent_took_left ? std::move(parent->left) : std::move(parent->right);
  std::unique_ptr<KdNode> sibling =
      parent_took_left ? std::move(parent->right) : std::move(parent->left);
  parent->split_dim = sibling->split_dim;
  parent->lsp = sibling->lsp;
  parent->rsp = sibling->rsp;
  parent->child = sibling->child;
  parent->els = std::move(sibling->els);
  parent->left = std::move(sibling->left);
  parent->right = std::move(sibling->right);

  IndexNode out;
  out.level = node.level;
  out.root = std::move(sub);
  HT_RETURN_NOT_OK(WriteIndexNode(page, node));
  HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  const PageId new_page = rh.id();
  rh.Release();
  HT_RETURN_NOT_OK(WriteIndexNode(new_page, out));

  // Parent-map maintenance: children now referenced from the new page gain
  // it; children no longer referenced from `page` lose it.
  const std::unordered_set<PageId> keep_children =
      DistinctChildren(node, dim_);
  for (PageId c : DistinctChildren(out, dim_)) {
    AddParent(&parents_, c, new_page);
  }
  for (PageId c : old_children) {
    if (!keep_children.count(c)) RemoveParent(&parents_, c, page);
  }

  SplitInfo info;
  info.path = std::move(path);
  info.new_page = new_page;
  return info;
}

// --- search -----------------------------------------------------------------

Result<std::vector<uint64_t>> HbTree::SearchBox(const Box& query) {
  return tree_search::SearchBox(Nav(), query);
}

Result<std::vector<uint64_t>> HbTree::SearchRange(
    std::span<const float> center, double radius,
    const DistanceMetric& metric) {
  // The root's region is the unit cube: a ball that misses it reads nothing.
  if (metric.MinDistToBox(center, Box::UnitCube(dim_)) > radius) {
    return std::vector<uint64_t>{};
  }
  return tree_search::SearchRange(Nav(), center, radius, metric);
}

Result<std::vector<std::pair<double, uint64_t>>> HbTree::SearchKnn(
    std::span<const float> center, size_t k, const DistanceMetric& metric) {
  return tree_search::SearchKnn(Nav(), center, k, metric);
}

// --- stats / invariants -----------------------------------------------------

Result<HbStats> HbTree::ComputeStats() {
  HbStats stats;
  stats.multi_step_splits = multi_step_splits_;
  double util_sum = 0.0;
  std::unordered_set<PageId> seen;
  HT_RETURN_NOT_OK(ComputeStatsRec(root_, &stats, &util_sum, &seen));
  if (stats.data_nodes > 0) {
    stats.avg_data_utilization =
        util_sum / static_cast<double>(stats.data_nodes);
  }
  if (stats.index_nodes > 0) {
    stats.avg_index_fanout /= static_cast<double>(stats.index_nodes);
  }
  for (const auto& [child, ps] : parents_) {
    if (ps.size() > 1) ++stats.multi_parent_nodes;
  }
  return stats;
}

Status HbTree::ComputeStatsRec(PageId page, HbStats* stats, double* util_sum,
                               std::unordered_set<PageId>* seen) {
  if (!seen->insert(page).second) return Status::OK();
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    ++stats->data_nodes;
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
  std::vector<ChildRef> kids;
  node.CollectChildren(Box::UnitCube(dim_), &kids);
  std::unordered_set<PageId> distinct;
  for (const auto& kid : kids) distinct.insert(kid.leaf->child);
  stats->avg_index_fanout += static_cast<double>(distinct.size());
  stats->redundant_refs += kids.size() - distinct.size();
  for (PageId child : distinct) {
    HT_RETURN_NOT_OK(ComputeStatsRec(child, stats, util_sum, seen));
  }
  return Status::OK();
}

Status HbTree::VerifyParentIndex() {
  std::unordered_map<PageId, std::vector<PageId>> actual;
  std::unordered_set<PageId> seen;
  std::function<Status(PageId)> rec = [&](PageId page) -> Status {
    if (!seen.insert(page).second) return Status::OK();
    HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
    if (kind == NodeKind::kData) return Status::OK();
    HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
    for (PageId c : DistinctChildren(node, dim_)) {
      AddParent(&actual, c, page);
      HT_RETURN_NOT_OK(rec(c));
    }
    return Status::OK();
  };
  HT_RETURN_NOT_OK(rec(root_));
  for (auto& [c, ps] : actual) {
    for (PageId p : ps) {
      const auto it = parents_.find(c);
      if (it == parents_.end() ||
          std::find(it->second.begin(), it->second.end(), p) ==
              it->second.end()) {
        return Status::Corruption("parents_ missing " + std::to_string(p) +
                                  " as parent of " + std::to_string(c));
      }
    }
  }
  return Status::OK();
}

Status HbTree::CheckInvariants() {
  // 1. Every stored entry must be reachable by clean navigation from the
  //    root (split posting preserved routing), and the total must match.
  uint64_t entries_seen = 0;
  std::unordered_set<PageId> seen;
  std::vector<std::pair<PageId, DataEntry>> all;
  std::function<Status(PageId)> collect = [&](PageId page) -> Status {
    if (!seen.insert(page).second) return Status::OK();
    HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
    if (kind == NodeKind::kData) {
      HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
      if (node.entries.size() > data_capacity_) {
        return Status::Corruption("hB data node over capacity");
      }
      entries_seen += node.entries.size();
      for (const auto& e : node.entries) all.emplace_back(page, e);
      return Status::OK();
    }
    HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
    if (node.SerializedSize(false) > page_size_) {
      return Status::Corruption("hB index node over page size");
    }
    std::function<Status(const KdNode*)> walk =
        [&](const KdNode* n) -> Status {
      if (n->IsLeaf()) return collect(n->child);
      if (n->lsp != n->rsp) {
        return Status::Corruption("hB split must be clean");
      }
      HT_RETURN_NOT_OK(walk(n->left.get()));
      return walk(n->right.get());
    };
    return walk(node.root.get());
  };
  HT_RETURN_NOT_OK(collect(root_));
  if (entries_seen != count_) {
    return Status::Corruption("hB entry count mismatch");
  }
  for (const auto& [home, e] : all) {
    PageId page = root_;
    for (;;) {
      HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
      if (kind == NodeKind::kData) break;
      HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
      const KdNode* n = node.root.get();
      while (!n->IsLeaf()) {
        n = e.vec[n->split_dim] <= n->lsp ? n->left.get() : n->right.get();
      }
      page = n->child;
    }
    if (page != home) {
      return Status::Corruption("hB entry routed to the wrong data page");
    }
  }
  return Status::OK();
}

}  // namespace ht

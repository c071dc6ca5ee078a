#include "core/hybrid_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <queue>
#include <tuple>
#include <unordered_map>

#include "common/codec.h"
#include "core/split.h"
#include "core/validator.h"

namespace ht {

namespace {
constexpr uint32_t kMetaMagic = 0x48594254;  // "HYBT"
constexpr uint32_t kMetaVersion = 1;
}  // namespace

// ---------------------------------------------------------------------------
// Construction / metadata
// ---------------------------------------------------------------------------

HybridTree::HybridTree(const HybridTreeOptions& options, PagedFile* file)
    : options_(options),
      file_(file),
      pool_(std::make_unique<BufferPool>(file, options.buffer_pool_pages,
                                         options.cache_policy)),
      codec_(options.dim, options.els_bits) {
  data_capacity_ = DataNode::Capacity(options_.dim, options_.page_size);
  data_min_count_ = std::max<size_t>(
      1, static_cast<size_t>(options_.data_node_min_util *
                             static_cast<double>(data_capacity_)));
  if (2 * data_min_count_ > data_capacity_) {
    data_min_count_ = data_capacity_ / 2;
  }
}

Result<std::unique_ptr<HybridTree>> HybridTree::Create(
    const HybridTreeOptions& options, PagedFile* file) {
  if (options.dim == 0) {
    return Status::InvalidArgument("dimension must be positive");
  }
  if (options.page_size != file->page_size()) {
    return Status::InvalidArgument("options.page_size != file page size");
  }
  if (file->page_count() != 0) {
    return Status::InvalidArgument("Create requires an empty file");
  }
  if (DataNode::Capacity(options.dim, options.page_size) < 4) {
    return Status::InvalidArgument(
        "page too small: a data node must hold at least 4 entries");
  }
  if (options.els_bits > 16) {
    return Status::InvalidArgument("els_bits must be <= 16");
  }
  auto tree = std::unique_ptr<HybridTree>(new HybridTree(options, file));
  // Page 0: metadata. Page 1: the initial (empty) data-node root.
  HT_ASSIGN_OR_RETURN(PageHandle meta, tree->pool_->New());
  HT_CHECK(meta.id() == 0);
  tree->meta_page_ = meta.id();
  HT_ASSIGN_OR_RETURN(PageHandle root, tree->pool_->New());
  tree->root_ = root.id();
  DataNode empty;
  empty.Serialize(root.data(), options.page_size, options.dim);
  root.MarkDirty();
  root.Release();
  meta.Release();
  // Construction is single-threaded by contract; the role makes the
  // WriteMeta requirement explicit to the analysis.
  ExclusiveRole guard(&tree->rw_contract_);
  HT_RETURN_NOT_OK(tree->WriteMeta());
  return tree;
}

Result<std::unique_ptr<HybridTree>> HybridTree::Open(PagedFile* file,
                                                     size_t buffer_pool_pages) {
  if (file->page_count() == 0) {
    return Status::InvalidArgument("Open requires a non-empty file");
  }
  Page meta(file->page_size());
  HT_RETURN_NOT_OK(file->Read(0, &meta));
  Reader r(meta.data(), meta.size());
  const uint8_t kind = r.GetU8();
  if (kind != static_cast<uint8_t>(NodeKind::kMeta)) {
    return Status::Corruption("page 0 is not a hybrid tree meta page");
  }
  const uint32_t magic = r.GetU32();
  const uint32_t version = r.GetU32();
  if (magic != kMetaMagic || version != kMetaVersion) {
    return Status::Corruption("bad hybrid tree magic/version");
  }
  HybridTreeOptions options;
  options.dim = r.GetU32();
  options.page_size = r.GetU32();
  const PageId root = r.GetU32();
  const uint32_t height = r.GetU32();
  const uint64_t count = r.GetU64();
  options.split_policy = static_cast<SplitPolicy>(r.GetU8());
  options.els_mode = static_cast<ElsMode>(r.GetU8());
  options.els_bits = r.GetU8();
  options.query_size_model = static_cast<QuerySizeModel>(r.GetU8());
  options.expected_query_side = r.GetF32();
  options.data_node_min_util = r.GetF32();
  options.index_node_min_util = r.GetF32();
  HT_RETURN_NOT_OK(r.status());
  if (options.page_size != file->page_size()) {
    return Status::Corruption("meta page size mismatch");
  }
  // Every value Create refuses is corruption here: the constructor (and
  // the ELS codec inside it) must only ever see a valid configuration.
  if (options.dim == 0) {
    return Status::Corruption("meta page: dimension is zero");
  }
  if (options.page_size < DataNode::kHeaderBytes ||
      DataNode::Capacity(options.dim, options.page_size) < 4) {
    return Status::Corruption(
        "meta page: a data page would hold fewer than 4 entries");
  }
  if (options.els_bits > 16) {
    return Status::Corruption("meta page: els_bits above 16");
  }
  if (options.split_policy != SplitPolicy::kEdaOptimal &&
      options.split_policy != SplitPolicy::kVamSplit) {
    return Status::Corruption("meta page: unknown split_policy");
  }
  if (options.els_mode != ElsMode::kOff &&
      options.els_mode != ElsMode::kInMemory &&
      options.els_mode != ElsMode::kInPage) {
    return Status::Corruption("meta page: unknown els_mode");
  }
  if (options.query_size_model != QuerySizeModel::kFixed &&
      options.query_size_model != QuerySizeModel::kUniform) {
    return Status::Corruption("meta page: unknown query_size_model");
  }
  options.buffer_pool_pages = buffer_pool_pages;

  auto tree = std::unique_ptr<HybridTree>(new HybridTree(options, file));
  tree->meta_page_ = 0;
  tree->root_ = root;
  tree->height_ = height;
  tree->count_ = count;
  if (options.els_mode == ElsMode::kInMemory && options.els_bits > 0) {
    // The sidecar is not persisted; rebuild exact codes with one DFS.
    HT_RETURN_NOT_OK(tree->RebuildEls());
  }
  return tree;
}

Status HybridTree::WriteMeta() {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(meta_page_));
  Writer w(h.data(), h.size());
  w.PutU8(static_cast<uint8_t>(NodeKind::kMeta));
  w.PutU32(kMetaMagic);
  w.PutU32(kMetaVersion);
  w.PutU32(options_.dim);
  w.PutU32(static_cast<uint32_t>(options_.page_size));
  w.PutU32(root_);
  w.PutU32(height_);
  w.PutU64(count_);
  w.PutU8(static_cast<uint8_t>(options_.split_policy));
  w.PutU8(static_cast<uint8_t>(options_.els_mode));
  w.PutU8(static_cast<uint8_t>(options_.els_bits));
  w.PutU8(static_cast<uint8_t>(options_.query_size_model));
  w.PutF32(static_cast<float>(options_.expected_query_side));
  w.PutF32(static_cast<float>(options_.data_node_min_util));
  w.PutF32(static_cast<float>(options_.index_node_min_util));
  h.MarkDirty();
  return Status::OK();
}

Status HybridTree::Flush() {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kIngest);
  // Ordered, write-ahead flush: first every dirty tree page goes out (in
  // one batched WriteBatch round trip) and is made
  // durable; only then is the metadata page — root pointer, height, count —
  // written and synced. A flush that dies part-way therefore leaves the old
  // metadata on disk: reopening yields the previous root rather than a new
  // root over pages that never landed. Pages are still rewritten in place
  // (no shadow paging), so the guarantee is "meta never points into the
  // void", not full multi-flush atomicity — see DESIGN.md §6d.
  HT_RETURN_NOT_OK(pool_->FlushAllExcept(meta_page_));
  HT_RETURN_NOT_OK(file_->Sync());
  HT_RETURN_NOT_OK(WriteMeta());
  HT_RETURN_NOT_OK(pool_->FlushPage(meta_page_));
  HT_RETURN_NOT_OK(file_->Sync());
  DebugValidate();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Node I/O helpers
// ---------------------------------------------------------------------------

Result<NodeKind> HybridTree::PeekKind(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return PeekNodeKind(h.data());
}

Result<DataNode> HybridTree::ReadDataNode(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  return DataNode::Deserialize(h.data(), h.size(), options_.dim);
}

Status HybridTree::WriteDataNode(PageId id, const DataNode& node) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  node.Serialize(h.data(), h.size(), options_.dim);
  h.MarkDirty();
  quant_store_.Invalidate(id);
  return Status::OK();
}

Result<IndexNode> HybridTree::ReadIndexNode(PageId id) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  HT_ASSIGN_OR_RETURN(
      IndexNode node,
      IndexNode::Deserialize(h.data(), h.size(), els_in_page(),
                             codec_.CodeBytes(), options_.dim));
  if (options_.els_mode == ElsMode::kInMemory && options_.els_bits > 0) {
    auto it = els_sidecar_.find(id);
    if (it != els_sidecar_.end()) {
      node.AttachElsBlob(it->second, codec_.CodeBytes());
    }
  }
  return node;
}

void HybridTree::EnsureCodes(KdNode* n) {
  if (n == nullptr) return;
  if (n->IsLeaf()) {
    if (n->els.size() != codec_.CodeBytes()) n->els = codec_.FullCode();
    return;
  }
  EnsureCodes(n->left.get());
  EnsureCodes(n->right.get());
}

Result<const FlatIndexNode*> HybridTree::ReadFlatNode(
    PageId id, const uint8_t* page_data, size_t page_size) const {
  if (const FlatIndexNode* node = node_cache_.Get(id)) return node;
  HT_ASSIGN_OR_RETURN(
      IndexNode node,
      IndexNode::Deserialize(page_data, page_size, els_in_page(),
                             codec_.CodeBytes(), options_.dim));
  if (options_.els_mode == ElsMode::kInMemory && options_.els_bits > 0) {
    auto sit = els_sidecar_.find(id);
    if (sit != els_sidecar_.end()) {
      node.AttachElsBlob(sit->second, codec_.CodeBytes());
    }
  }
  // Each leaf's live box is decoded once here, against its node-local kd
  // region; the parsed kd tree itself is dropped. Two readers may race to
  // flatten the same page; the first to publish wins and the other's copy
  // is deleted. Both are identical (the page is immutable while readers
  // run).
  return node_cache_.Publish(
      id, std::make_unique<const FlatIndexNode>(
              node, options_.dim, els_enabled() ? &codec_ : nullptr));
}

void HybridTree::InvalidateCachedNode(PageId id) { node_cache_.Erase(id); }

Status HybridTree::WriteIndexNode(PageId id, IndexNode& node) {
  InvalidateCachedNode(id);
  if (els_enabled()) EnsureCodes(node.root.get());
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(id));
  node.Serialize(h.data(), h.size(), els_in_page(), codec_.CodeBytes());
  h.MarkDirty();
  if (options_.els_mode == ElsMode::kInMemory && options_.els_bits > 0) {
    els_sidecar_[id] = node.ExtractElsBlob(codec_.CodeBytes());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ELS helpers
// ---------------------------------------------------------------------------

void HybridTree::ReencodeSubtree(KdNode* n, const Box& old_br,
                                 const Box& new_br) {
  if (!els_enabled() || n == nullptr) return;
  if (n->IsLeaf()) {
    n->els = codec_.Reencode(n->els, old_br, new_br);
    return;
  }
  ReencodeSubtree(n->left.get(), KdLeftBr(old_br, *n), KdLeftBr(new_br, *n));
  ReencodeSubtree(n->right.get(), KdRightBr(old_br, *n),
                  KdRightBr(new_br, *n));
}

// ---------------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------------

Status HybridTree::Insert(std::span<const float> point, uint64_t id) {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kIngest);
  if (point.size() != options_.dim) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  for (float v : point) {
    if (!(v >= 0.0f && v <= 1.0f)) {
      return Status::InvalidArgument(
          "point outside the normalized feature space [0,1]^dim");
    }
  }
  const Box cube = Box::UnitCube(options_.dim);
  HT_ASSIGN_OR_RETURN(SplitResult s, InsertRec(root_, cube, point, id));
  if (s.split) {
    HT_RETURN_NOT_OK(GrowRoot(s));
  }
  ++count_;
  DebugValidate();
  return Status::OK();
}

Status HybridTree::GrowRoot(const SplitResult& s) {
  // Grow the tree: a new root whose kd-tree is a single split.
  const Box cube = Box::UnitCube(options_.dim);
  IndexNode new_root;
  new_root.level = static_cast<uint8_t>(height_ + 1);
  Box left_br = cube;
  if (s.lsp < left_br.hi(s.dim)) left_br.set_hi(s.dim, s.lsp);
  Box right_br = cube;
  if (s.rsp > right_br.lo(s.dim)) right_br.set_lo(s.dim, s.rsp);
  auto lleaf = KdNode::MakeLeaf(
      root_, els_enabled() ? codec_.Encode(s.left_live, left_br) : ElsCode{});
  auto rleaf = KdNode::MakeLeaf(
      s.right_page,
      els_enabled() ? codec_.Encode(s.right_live, right_br) : ElsCode{});
  new_root.root = KdNode::MakeInternal(s.dim, s.lsp, s.rsp, std::move(lleaf),
                                       std::move(rleaf));
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
  const PageId new_root_page = h.id();
  h.Release();
  HT_RETURN_NOT_OK(WriteIndexNode(new_root_page, new_root));
  root_ = new_root_page;
  ++height_;
  return Status::OK();
}

Status HybridTree::InsertBatch(std::span<const float> points,
                               std::span<const uint64_t> ids) {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kIngest);
  if (ids.empty()) return Status::OK();
  if (points.size() != ids.size() * options_.dim) {
    return Status::InvalidArgument(
        "InsertBatch: points.size() must equal ids.size() * dim");
  }
  // Whole-batch validation before any mutation, mirroring the WriteBatch
  // contract: a bad row cannot leave a half-applied batch behind.
  for (float v : points) {
    if (!(v >= 0.0f && v <= 1.0f)) {
      return Status::InvalidArgument(
          "point outside the normalized feature space [0,1]^dim");
    }
  }
  const Box cube = Box::UnitCube(options_.dim);
  std::vector<uint32_t> remaining(ids.size());
  std::iota(remaining.begin(), remaining.end(), 0u);
  // Every descent places at least one row before any split bubbles rows
  // back up, so this loop makes progress and terminates.
  while (!remaining.empty()) {
    HT_ASSIGN_OR_RETURN(
        BatchOutcome out,
        InsertBatchRec(root_, cube, points, ids, std::move(remaining)));
    if (out.split.split) {
      HT_RETURN_NOT_OK(GrowRoot(out.split));
    }
    remaining = std::move(out.leftovers);
  }
  DebugValidate();
  return Status::OK();
}

Result<HybridTree::BatchOutcome> HybridTree::InsertBatchRec(
    PageId page, const Box& br, std::span<const float> points,
    std::span<const uint64_t> ids, std::vector<uint32_t> idxs) {
  const auto row = [&](uint32_t i) {
    return points.subspan(static_cast<size_t>(i) * options_.dim,
                          options_.dim);
  };
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    // One deserialize + one serialize for the whole group, instead of one
    // round trip through the codec per point.
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    BatchOutcome out;
    for (size_t k = 0; k < idxs.size(); ++k) {
      const auto p = row(idxs[k]);
      node.entries.push_back(
          DataEntry{ids[idxs[k]], std::vector<float>(p.begin(), p.end())});
      if (node.entries.size() > data_capacity_) {
        // Overflow at exactly the same occupancy as a serial Insert. The
        // not-yet-placed rows re-route through the caller against the two
        // new halves.
        HT_ASSIGN_OR_RETURN(out.split, SplitDataNode(page, node, br));
        count_ += k + 1;
        out.leftovers.assign(idxs.begin() + static_cast<ptrdiff_t>(k) + 1,
                             idxs.end());
        return out;
      }
    }
    HT_RETURN_NOT_OK(WriteDataNode(page, node));
    count_ += idxs.size();
    return out;
  }

  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  bool dirtied = false;
  BatchOutcome out;
  std::vector<uint32_t> pending = std::move(idxs);
  while (!pending.empty()) {
    // One routing pass buckets every pending row by its target kd leaf, so
    // each child page is read and re-serialized once per ROUND instead of
    // once per row. A child split replaces only its own bucket's leaf —
    // the other buckets' leaf pointers stay valid — so re-routing is
    // needed only for rows a split bounced back (the next round).
    std::vector<ChildRef> targets;
    std::vector<std::vector<uint32_t>> buckets;
    std::unordered_map<const KdNode*, size_t> bucket_of;
    for (uint32_t idx : pending) {
      const auto p = row(idx);
      ChildRef t = FindLeafForInsert(node, p, br, &dirtied);
      if (els_enabled()) {
        ElsCode grown = codec_.ExtendToInclude(t.leaf->els, t.kd_br, p);
        if (grown != t.leaf->els) {
          t.leaf->els = std::move(grown);
          dirtied = true;
        }
      }
      auto [it, fresh] = bucket_of.try_emplace(t.leaf, buckets.size());
      if (fresh) {
        targets.push_back(t);
        buckets.emplace_back();
      }
      buckets[it->second].push_back(idx);
    }
    std::vector<uint32_t> bounced;
    // A kd_br captured during routing can go stale: a later row's
    // gap-widening moves boundaries (and re-encodes ELS against the new
    // regions). Recompute each leaf's current region when its bucket is
    // processed, so split replacement clips against live geometry.
    auto kd_br_of = [&](const KdNode* leaf) -> Box {
      Box result = br;
      std::function<bool(const KdNode*, const Box&)> walk =
          [&](const KdNode* n, const Box& b) -> bool {
        if (n == leaf) {
          result = b;
          return true;
        }
        if (n->IsLeaf()) return false;
        return walk(n->left.get(), KdLeftBr(b, *n)) ||
               walk(n->right.get(), KdRightBr(b, *n));
      };
      walk(node.root.get(), br);
      return result;
    };
    for (size_t b = 0; b < buckets.size(); ++b) {
      KdNode* const target_leaf = targets[b].leaf;
      const Box target_br = kd_br_of(target_leaf);
      const PageId child_page = target_leaf->child;
      // Children interpret their own kd trees relative to the unit cube
      // (see InsertRec): node-local ELS reference regions cannot go stale.
      HT_ASSIGN_OR_RETURN(
          BatchOutcome cs,
          InsertBatchRec(child_page, Box::UnitCube(options_.dim), points, ids,
                         std::move(buckets[b])));
      if (cs.split.split) {
        // Replace the kd leaf by an internal node over the two halves.
        Box left_br = target_br;
        if (cs.split.lsp < left_br.hi(cs.split.dim)) {
          left_br.set_hi(cs.split.dim, cs.split.lsp);
        }
        Box right_br = target_br;
        if (cs.split.rsp > right_br.lo(cs.split.dim)) {
          right_br.set_lo(cs.split.dim, cs.split.rsp);
        }
        KdNode* leaf = target_leaf;
        leaf->left = KdNode::MakeLeaf(
            child_page,
            els_enabled() ? codec_.Encode(cs.split.left_live, left_br)
                          : ElsCode{});
        leaf->right = KdNode::MakeLeaf(
            cs.split.right_page,
            els_enabled() ? codec_.Encode(cs.split.right_live, right_br)
                          : ElsCode{});
        leaf->split_dim = cs.split.dim;
        leaf->lsp = cs.split.lsp;
        leaf->rsp = cs.split.rsp;
        leaf->child = kInvalidPageId;
        leaf->els.clear();
        dirtied = true;
      }
      bounced.insert(bounced.end(), cs.leftovers.begin(), cs.leftovers.end());
      if (node.SerializedSize(els_in_page()) > options_.page_size) {
        // This node must split; every not-yet-placed row — bounced ones
        // and whole unprocessed buckets — bubbles up and re-routes from
        // the caller once the split is applied there.
        HT_ASSIGN_OR_RETURN(out.split, SplitIndexNode(page, node, br));
        for (size_t rest = b + 1; rest < buckets.size(); ++rest) {
          bounced.insert(bounced.end(), buckets[rest].begin(),
                         buckets[rest].end());
        }
        out.leftovers = std::move(bounced);
        return out;
      }
    }
    pending = std::move(bounced);
  }
  if (dirtied) {
    HT_RETURN_NOT_OK(WriteIndexNode(page, node));
  }
  return out;
}

namespace {
/// Margin-based enlargement: total increase of side lengths needed for
/// `box` to cover `p`. Volume-based enlargement underflows to 0 beyond a
/// few dozen dimensions, margins stay informative at any dimensionality.
double MarginEnlargement(const Box& box, std::span<const float> p) {
  double grow = 0.0;
  for (uint32_t d = 0; d < box.dim(); ++d) {
    if (p[d] < box.lo(d)) grow += box.lo(d) - p[d];
    if (p[d] > box.hi(d)) grow += p[d] - box.hi(d);
  }
  return grow;
}
}  // namespace

ChildRef HybridTree::FindLeafForInsert(IndexNode& node,
                                       std::span<const float> p,
                                       const Box& node_br, bool* dirtied) {
  // §3.5: indexed subspaces are treated as BRs; the insertion target is the
  // child needing minimum enlargement, ties broken by BR size. Collect
  // every leaf whose kd region contains the point (overlaps can yield
  // several) and rank them by live-region enlargement. The candidates
  // buffer is a member reused across the insert descent (cleared, capacity
  // retained) instead of reallocating per visited node.
  std::vector<ChildRef>& candidates = insert_candidates_;
  candidates.clear();
  std::function<void(KdNode*, const Box&)> walk = [&](KdNode* n,
                                                      const Box& br) {
    if (n->IsLeaf()) {
      candidates.push_back(ChildRef{n, br});
      return;
    }
    const float v = p[n->split_dim];
    if (v <= n->lsp) walk(n->left.get(), KdLeftBr(br, *n));
    if (v >= n->rsp) walk(n->right.get(), KdRightBr(br, *n));
  };
  walk(node.root.get(), node_br);

  if (!candidates.empty()) {
    size_t best = 0;
    double best_grow = std::numeric_limits<double>::max();
    double best_margin = std::numeric_limits<double>::max();
    for (size_t i = 0; i < candidates.size(); ++i) {
      const Box live = els_enabled()
                           ? codec_.Decode(candidates[i].leaf->els,
                                           candidates[i].kd_br)
                           : candidates[i].kd_br;
      const double grow = MarginEnlargement(live, p);
      const double margin = live.Margin();
      if (std::tie(grow, margin) < std::tie(best_grow, best_margin)) {
        best_grow = grow;
        best_margin = margin;
        best = i;
      }
    }
    return candidates[best];
  }

  // The point fell into a kd gap (lsp < v < rsp) on every path: admit it by
  // minimally enlarging the nearer boundary — the 1-d specialization of the
  // minimum-enlargement rule. The widened subtree's kd regions change, so
  // its ELS codes are re-encoded against the new reference regions.
  KdNode* n = node.root.get();
  Box br = node_br;
  while (!n->IsLeaf()) {
    const uint32_t d = n->split_dim;
    const float v = p[d];
    const bool can_left = v <= n->lsp;
    const bool can_right = v >= n->rsp;
    if (!can_left && !can_right) {
      if (v - n->lsp <= n->rsp - v) {
        const Box old_br = KdLeftBr(br, *n);
        n->lsp = v;
        ReencodeSubtree(n->left.get(), old_br, KdLeftBr(br, *n));
      } else {
        const Box old_br = KdRightBr(br, *n);
        n->rsp = v;
        ReencodeSubtree(n->right.get(), old_br, KdRightBr(br, *n));
      }
      *dirtied = true;
      continue;  // re-evaluate with the widened boundary
    }
    bool go_left;
    if (can_left && can_right) {
      go_left = (n->lsp - v) >= (v - n->rsp);
    } else {
      go_left = can_left;
    }
    if (go_left) {
      br = KdLeftBr(br, *n);
      n = n->left.get();
    } else {
      br = KdRightBr(br, *n);
      n = n->right.get();
    }
  }
  return ChildRef{n, br};
}

Result<HybridTree::SplitResult> HybridTree::InsertRec(
    PageId page, const Box& br, std::span<const float> point, uint64_t id) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    node.entries.push_back(
        DataEntry{id, std::vector<float>(point.begin(), point.end())});
    if (node.entries.size() <= data_capacity_) {
      HT_RETURN_NOT_OK(WriteDataNode(page, node));
      return SplitResult{};
    }
    return SplitDataNode(page, node, br);
  }

  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  bool dirtied = false;
  ChildRef target = FindLeafForInsert(node, point, br, &dirtied);
  if (els_enabled()) {
    ElsCode grown =
        codec_.ExtendToInclude(target.leaf->els, target.kd_br, point);
    if (grown != target.leaf->els) {
      target.leaf->els = std::move(grown);
      dirtied = true;
    }
  }
  const PageId child_page = target.leaf->child;
  // Children interpret their own kd trees relative to the unit cube:
  // every page's ELS reference regions are node-local (see the class
  // comment), so ancestor boundary changes can never stale them.
  HT_ASSIGN_OR_RETURN(SplitResult cs,
                      InsertRec(child_page, Box::UnitCube(options_.dim),
                                point, id));
  if (cs.split) {
    // Replace the kd leaf by an internal node over the two halves.
    Box left_br = target.kd_br;
    if (cs.lsp < left_br.hi(cs.dim)) left_br.set_hi(cs.dim, cs.lsp);
    Box right_br = target.kd_br;
    if (cs.rsp > right_br.lo(cs.dim)) right_br.set_lo(cs.dim, cs.rsp);
    KdNode* leaf = target.leaf;
    leaf->left = KdNode::MakeLeaf(
        child_page,
        els_enabled() ? codec_.Encode(cs.left_live, left_br) : ElsCode{});
    leaf->right = KdNode::MakeLeaf(
        cs.right_page,
        els_enabled() ? codec_.Encode(cs.right_live, right_br) : ElsCode{});
    leaf->split_dim = cs.dim;
    leaf->lsp = cs.lsp;
    leaf->rsp = cs.rsp;
    leaf->child = kInvalidPageId;
    leaf->els.clear();
    dirtied = true;
  }
  if (node.SerializedSize(els_in_page()) > options_.page_size) {
    return SplitIndexNode(page, node, br);
  }
  if (dirtied) {
    HT_RETURN_NOT_OK(WriteIndexNode(page, node));
  }
  return SplitResult{};
}

Result<HybridTree::SplitResult> HybridTree::SplitDataNode(PageId page,
                                                          DataNode& node,
                                                          const Box& br) {
  // The EDA-optimal dimension is the one along which the node's bounding
  // region is widest (§3.2). The *live* BR (tight box over the stored
  // entries) is the operative region: the kd region also covers dead space
  // whose extent says nothing about where a split can separate data.
  (void)br;
  const Box live = node.ComputeLiveBr(options_.dim);
  DataSplit ds = ChooseDataSplit(live, node.entries, data_min_count_,
                                 options_.split_policy);
  DataNode left, right;
  left.entries.reserve(ds.left.size());
  right.entries.reserve(ds.right.size());
  for (uint32_t i : ds.left) left.entries.push_back(std::move(node.entries[i]));
  for (uint32_t i : ds.right) {
    right.entries.push_back(std::move(node.entries[i]));
  }
  HT_RETURN_NOT_OK(WriteDataNode(page, left));
  HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  const PageId right_page = rh.id();
  right.Serialize(rh.data(), rh.size(), options_.dim);
  rh.MarkDirty();
  rh.Release();

  SplitResult out;
  out.split = true;
  out.dim = ds.dim;
  out.lsp = ds.pos;
  out.rsp = ds.pos;
  out.right_page = right_page;
  out.left_live = left.ComputeLiveBr(options_.dim);
  out.right_live = right.ComputeLiveBr(options_.dim);
  return out;
}

std::unique_ptr<KdNode> HybridTree::BuildKdTree(std::vector<ChildItem> items,
                                                const Box& region) {
  HT_CHECK(!items.empty());
  if (items.size() == 1) {
    return KdNode::MakeLeaf(items[0].page,
                            els_enabled() ? codec_.Encode(items[0].live, region)
                                          : ElsCode{});
  }
  // Partition by the children's live regions: dead space contributes
  // nothing to the expected accesses, and live boxes give tighter (often
  // overlap-free) split positions. When ELS is off, live == kd region.
  std::vector<Box> live_brs;
  live_brs.reserve(items.size());
  for (const auto& it : items) live_brs.push_back(it.live);
  // Internal kd rebuild aims at balance (1/3 per side) and may use any
  // dimension; unused dimensions price themselves out via full overlap.
  std::vector<uint32_t> all_dims(options_.dim);
  for (uint32_t d = 0; d < options_.dim; ++d) all_dims[d] = d;
  const size_t min_count = std::max<size_t>(1, items.size() / 3);
  IndexSplit is = ChooseIndexSplit(region, live_brs, min_count, all_dims,
                                   options_.split_policy,
                                   options_.query_size_model,
                                   options_.expected_query_side);
  Box left_region = region;
  if (is.parts.lsp < left_region.hi(is.dim)) {
    left_region.set_hi(is.dim, is.parts.lsp);
  }
  Box right_region = region;
  if (is.parts.rsp > right_region.lo(is.dim)) {
    right_region.set_lo(is.dim, is.parts.rsp);
  }
  std::vector<ChildItem> left_items, right_items;
  left_items.reserve(is.parts.left.size());
  right_items.reserve(is.parts.right.size());
  for (uint32_t i : is.parts.left) left_items.push_back(std::move(items[i]));
  for (uint32_t i : is.parts.right) right_items.push_back(std::move(items[i]));
  auto l = BuildKdTree(std::move(left_items), left_region);
  auto r = BuildKdTree(std::move(right_items), right_region);
  return KdNode::MakeInternal(is.dim, is.parts.lsp, is.parts.rsp, std::move(l),
                              std::move(r));
}

Result<HybridTree::SplitResult> HybridTree::SplitIndexNode(PageId page,
                                                           IndexNode& node,
                                                           const Box& br) {
  std::vector<ChildRef> kids;
  kids.reserve(node.NumChildren());
  node.CollectChildren(br, &kids);
  HT_CHECK(kids.size() >= 2);
  std::vector<Box> live_brs;
  std::vector<ChildItem> items;
  live_brs.reserve(kids.size());
  items.reserve(kids.size());
  for (const auto& kid : kids) {
    Box live = els_enabled() ? codec_.Decode(kid.leaf->els, kid.kd_br)
                             : kid.kd_br;
    live_brs.push_back(live);
    items.push_back(ChildItem{kid.leaf->child, kid.kd_br, std::move(live)});
  }
  const size_t min_count = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(options_.index_node_min_util *
                                       static_cast<double>(kids.size()))));
  // Lemma 1: restrict the split dimension to the dimensions already used
  // inside this node; the choice remains EDA-optimal and guarantees that
  // non-discriminating dimensions are never introduced. Children are
  // bipartitioned by their live regions (dead space has no access cost).
  const std::vector<uint32_t> candidates = node.UsedDims(options_.dim);
  IndexSplit is = ChooseIndexSplit(br, live_brs, min_count, candidates,
                                   options_.split_policy,
                                   options_.query_size_model,
                                   options_.expected_query_side);
  HT_CHECK(is.valid);

  // The two new nodes are separate pages; their kd trees are interpreted
  // relative to the unit cube (node-local ELS references), so the parent's
  // (lsp, rsp) clip must NOT be baked into the rebuilt regions.
  const Box local_base = Box::UnitCube(options_.dim);

  std::vector<ChildItem> left_items, right_items;
  Box left_live = Box::Empty(options_.dim);
  Box right_live = Box::Empty(options_.dim);
  for (uint32_t i : is.parts.left) {
    left_live.ExtendToInclude(items[i].live);
    left_items.push_back(std::move(items[i]));
  }
  for (uint32_t i : is.parts.right) {
    right_live.ExtendToInclude(items[i].live);
    right_items.push_back(std::move(items[i]));
  }

  IndexNode left;
  left.level = node.level;
  left.root = BuildKdTree(std::move(left_items), local_base);
  IndexNode right;
  right.level = node.level;
  right.root = BuildKdTree(std::move(right_items), local_base);
  HT_CHECK(left.SerializedSize(els_in_page()) <= options_.page_size);
  HT_CHECK(right.SerializedSize(els_in_page()) <= options_.page_size);

  HT_RETURN_NOT_OK(WriteIndexNode(page, left));
  HT_ASSIGN_OR_RETURN(PageHandle rh, pool_->New());
  const PageId right_page = rh.id();
  rh.Release();
  HT_RETURN_NOT_OK(WriteIndexNode(right_page, right));

  SplitResult out;
  out.split = true;
  out.dim = is.dim;
  out.lsp = is.parts.lsp;
  out.rsp = is.parts.rsp;
  out.right_page = right_page;
  out.left_live = std::move(left_live);
  out.right_live = std::move(right_live);
  return out;
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

namespace {

/// MINDIST from `center` to every child live box of `node`, in leaf order,
/// with one batch call (`buf` is sized to the padded lane count and never
/// shrinks).
const double* ChildMinDists(const FlatIndexNode& node,
                            std::span<const float> center,
                            const DistanceMetric& metric,
                            std::vector<double>* buf) {
  const BoxSetView boxes = node.live_boxes();
  if (buf->size() < boxes.stride) buf->resize(boxes.stride);
  metric.MinDistToBoxes(center, boxes, buf->data());
  return buf->data();
}

/// Grows a bit-mask buffer to `words` words (never shrinks).
uint64_t* MaskWords(std::vector<uint64_t>* buf, size_t words) {
  if (buf->size() < words) buf->resize(words);
  return buf->data();
}

}  // namespace

void HybridTree::PrefetchDescents(size_t first, SearchScratch* scratch) const {
  const auto& descents = scratch->descents;
  if (options_.prefetch_depth == 0 || descents.size() - first <= 1) return;
  auto& ids = scratch->prefetch_ids;
  ids.clear();
  for (size_t i = first; i < descents.size(); ++i) {
    ids.push_back(descents[i].page);
  }
  pool_->Prefetch(ids);
}

Result<std::vector<uint64_t>> HybridTree::SearchBox(const Box& query) const {
  std::vector<uint64_t> out;
  HT_RETURN_NOT_OK(SearchBoxInto(query, /*scratch=*/nullptr, &out));
  return out;
}

Status HybridTree::SearchBoxInto(const Box& query, SearchScratch* scratch,
                                 std::vector<uint64_t>* out) const {
  SharedRole role(&rw_contract_);
  if (query.dim() != options_.dim) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  out->clear();
  SearchScratch local;
  if (scratch == nullptr) scratch = &local;
  scratch->descents.clear();
  return SearchBoxRec(root_, query, /*contained=*/false, scratch, out);
}

Status HybridTree::SearchBoxRec(PageId page, const Box& query, bool contained,
                                SearchScratch* scratch,
                                std::vector<uint64_t>* out) const {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  const NodeKind kind = PeekNodeKind(h.data());
  if (kind == NodeKind::kData) {
    DataPageScan scan(h.data(), h.size(), options_.dim);
    if (!scan.ok()) return Status::Corruption("expected data node page");
    const size_t n = scan.count();
    if (contained) {
      // Scan-level pruning: an ancestor's live box was fully inside the
      // query, so every entry qualifies — collect ids without per-point
      // containment tests.
      for (size_t i = 0; i < n; ++i) out->push_back(scan.id(i));
      return Status::OK();
    }
    for (size_t i = 0; i < n; ++i) {
      if (query.ContainsPoint(scan.vec(i))) out->push_back(scan.id(i));
    }
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(const FlatIndexNode* node,
                      ReadFlatNode(page, h.data(), h.size()));
  h.Release();

  auto& descents = scratch->descents;
  const size_t first = descents.size();
  const size_t n = node->num_children();
  if (contained) {
    for (size_t i = 0; i < n; ++i) {
      descents.push_back(SearchScratch::Descent{node->child(i), true});
    }
  } else {
    // Intra-node search is 1-d interval tests on the kd array (the paper's
    // CPU advantage); the §3.4 two-step check then reads each reached
    // leaf's verdict from one overlap pass over the reached live boxes.
    // A live box is the decoded ELS box (ELS on) or the kd region (ELS
    // off); either way all data below lies inside it, so containment lets
    // the whole subtree skip per-point tests, and with ELS off every
    // reached leaf intersects the query already.
    const size_t words = (n + 63) / 64;
    uint64_t* reached = MaskWords(&scratch->reached, words);
    uint64_t* intersects = MaskWords(&scratch->intersects, words);
    uint64_t* contains = MaskWords(&scratch->contains, words);
    node->RouteBox(query, reached);
    const BoxSetView live = node->live_boxes();
    kernels::Active().box_overlap(query.lo().data(), query.hi().data(),
                                  live.dim, live.lo, live.hi, live.stride, n,
                                  reached, intersects, contains);
    // A child the sidecar rules out is decided here, at admission, so it
    // never enters the prefetch batch.
    const uint64_t* admitted = els_enabled() ? intersects : reached;
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t m = admitted[w]; m != 0; m &= m - 1) {
        const size_t bit = static_cast<size_t>(std::countr_zero(m));
        const PageId child = node->child(w * 64 + bit);
        const bool inside = ((contains[w] >> bit) & 1) != 0;
        if (!inside && BoxRulesOut(child, query, scratch)) continue;
        descents.push_back(SearchScratch::Descent{child, inside});
      }
    }
  }
  PrefetchDescents(first, scratch);
  Status st;
  for (size_t i = first; st.ok() && i < descents.size(); ++i) {
    const SearchScratch::Descent c = descents[i];
    st = SearchBoxRec(c.page, query, c.contained, scratch, out);
  }
  descents.resize(first);
  return st;
}

bool HybridTree::BoxRulesOut(PageId page, const Box& query,
                             SearchScratch* scratch) const {
  // Residency first: on a warm pool it is the only probe.
  if (!options_.quant_sidecars || pool_->Cached(page)) return false;
  const QuantizedPage* qp = quant_store_.Lookup(page);
  if (qp == nullptr) return false;
  const float* lo = query.lo().data();
  const float* hi = query.hi().data();
  if (quant::AnyRowMayBeInBox(qp->view(), lo, hi, &scratch->quant)) {
    return false;
  }
  pool_->CountSkippedPage();
  return true;
}

Result<std::vector<uint64_t>> HybridTree::SearchPoint(
    std::span<const float> point) const {
  if (point.size() != options_.dim) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  return SearchBox(Box::FromPoint(point));
}

Result<uint64_t> HybridTree::CountBox(const Box& query) const {
  HT_ASSIGN_OR_RETURN(auto ids, SearchBox(query));
  return static_cast<uint64_t>(ids.size());
}

Status HybridTree::ScanAll(
    const std::function<void(uint64_t, std::span<const float>)>& visit) const {
  SharedRole role(&rw_contract_);
  // A full sweep is the canonical one-touch stream: tag it kScan so the
  // SLRU pool admits its pages to the probationary segment only and the
  // query working set survives (see storage/buffer_pool.h).
  AccessClassScope ac(AccessClass::kScan);
  SearchScratch scratch;
  return ScanAllRec(root_, visit, &scratch);
}

Status HybridTree::ScanAllRec(
    PageId page,
    const std::function<void(uint64_t, std::span<const float>)>& visit,
    SearchScratch* scratch) const {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  const NodeKind kind = PeekNodeKind(h.data());
  if (kind == NodeKind::kData) {
    DataPageScan scan(h.data(), h.size(), options_.dim);
    if (!scan.ok()) return Status::Corruption("expected data node page");
    for (size_t i = 0; i < scan.count(); ++i) {
      visit(scan.id(i), scan.vec(i));
    }
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(const FlatIndexNode* node,
                      ReadFlatNode(page, h.data(), h.size()));
  h.Release();
  // An index node commits to visiting every child, so the whole fanout is
  // one prefetch batch (bulk-loaded trees allocate children contiguously,
  // so this coalesces into sequential vectored reads).
  auto& descents = scratch->descents;
  const size_t first = descents.size();
  for (size_t i = 0; i < node->num_children(); ++i) {
    descents.push_back(SearchScratch::Descent{node->child(i), false});
  }
  PrefetchDescents(first, scratch);
  Status st;
  for (size_t i = first; st.ok() && i < descents.size(); ++i) {
    st = ScanAllRec(descents[i].page, visit, scratch);
  }
  descents.resize(first);
  return st;
}

Result<std::vector<uint64_t>> HybridTree::SearchRange(
    std::span<const float> center, double radius,
    const DistanceMetric& metric) const {
  std::vector<uint64_t> out;
  HT_RETURN_NOT_OK(
      SearchRangeInto(center, radius, metric, /*scratch=*/nullptr, &out));
  return out;
}

Status HybridTree::SearchRangeInto(std::span<const float> center,
                                   double radius,
                                   const DistanceMetric& metric,
                                   SearchScratch* scratch,
                                   std::vector<uint64_t>* out) const {
  SharedRole role(&rw_contract_);
  if (center.size() != options_.dim) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  out->clear();
  SearchScratch local;
  if (scratch == nullptr) scratch = &local;
  scratch->descents.clear();
  scratch->carried.clear();
  return SearchRangeRec(root_, {}, center, radius, metric, scratch, out);
}

bool HybridTree::SidecarsServe(const DistanceMetric& metric) const {
  // At the scalar dispatch tier the sidecars are pure overhead: the scalar
  // code pass costs more per row than the early-abandoning exact scan it
  // would save. So a scalar-tier scan (no SIMD on this host, or
  // HT_SIMD=scalar) runs exactly the pre-sidecar hot path and builds
  // nothing. A metric with no code-space machinery (SupportsCodeFilter
  // false, e.g. the QuadraticForm fallback) takes the same exit BEFORE the
  // sidecar lookup: building codes it can never filter with would only
  // fill QuantStore with useless pages.
  return options_.quant_sidecars && metric.SupportsCodeFilter() &&
         kernels::ActiveTier() != kernels::SimdTier::kScalar;
}

bool HybridTree::QuantFilter(PageId page, const DataPageScan* pinned,
                             std::span<const float> center,
                             const DistanceMetric& metric, double bound,
                             SearchScratch* scratch) const {
  if (!SidecarsServe(metric)) return false;
  // After the pin the sidecar is built on the page's first scan even when
  // this scan cannot filter (an infinite bound: the k-NN heap is not yet
  // full), so that later visits can rule the page out before the pin.
  const QuantizedPage* qp = quant_store_.Lookup(page);
  if (qp == nullptr && pinned != nullptr) {
    qp = quant_store_.GetOrBuild(page, pinned->block(), pinned->stride_floats(),
                                 pinned->count(), options_.dim);
  }
  // Code filtering is pointless when the bound prunes nothing (k-NN heap
  // not yet full): every row would survive. The fused mask kernels decide
  // survival in-register and hand back one bit per row — on a 99%-pruned
  // scan the decode below touches one mostly-zero byte per 8 rows. Every
  // metric with SupportsCodeFilter() has a mask kernel; one without would
  // simply scan unfiltered.
  if (qp == nullptr || bound >= std::numeric_limits<double>::max()) {
    return false;
  }
  const quant::PageCodesView view = qp->view();
  const size_t n = view.count;
  const size_t nmask = view.blocks;
  if (scratch->masks.size() < nmask) scratch->masks.resize(nmask);
  if (!metric.CodeFilterMasks(center, view, bound, &scratch->quant,
                              scratch->masks.data())) {
    return false;
  }
  // Survivors in ascending row order, so refinement replays the exact
  // per-row decision sequence of the unfiltered scan.
  auto& surv = scratch->survivors;
  surv.clear();
  for (size_t b = 0; b < nmask; ++b) {
    unsigned m = scratch->masks[b];
    while (m != 0) {
      surv.push_back(static_cast<uint32_t>(
          b * kernels::kTBlock + static_cast<size_t>(std::countr_zero(m))));
      m &= m - 1;
    }
  }
  pool_->CountScan(n, surv.size(), /*filtered=*/true);
  if (pinned == nullptr && surv.empty()) pool_->CountSkippedPage();
  return true;
}

bool HybridTree::RuledOutAhead(PageId page, std::span<const float> center,
                               const DistanceMetric& metric, double bound,
                               SearchScratch* scratch) const {
  if (!SidecarsServe(metric) || bound >= std::numeric_limits<double>::max()) {
    return false;
  }
  const QuantizedPage* qp = quant_store_.Lookup(page);
  if (qp == nullptr) return false;
  const quant::PageCodesView view = qp->view();
  const size_t nmask = view.blocks;
  if (scratch->masks.size() < nmask) scratch->masks.resize(nmask);
  uint8_t* masks = scratch->masks.data();
  if (!metric.CodeFilterMasks(center, view, bound, &scratch->quant, masks)) {
    return false;
  }
  return std::all_of(masks, masks + nmask, [](uint8_t m) { return m == 0; });
}

template <typename Emit>
Status HybridTree::ScanDataPage(PageId page, const uint8_t* data, size_t size,
                                std::span<const uint32_t> survivors,
                                std::span<const float> center,
                                const DistanceMetric& metric, double bound,
                                SearchScratch* scratch,
                                const Emit& emit_any) const {
  // A NaN distance (a NaN coordinate, say) compares false against every
  // threshold: a k-NN heap that is not yet full would admit the row, and
  // `d > bound` would not drop it. Such a row is never an answer, so it is
  // skipped here, where every metric scan emits; only emitted rows pay the
  // test.
  const auto emit = [&emit_any](double d, uint64_t id) {
    if (!std::isnan(d)) emit_any(d, id);
  };
  DataPageScan scan(data, size, options_.dim);
  if (!scan.ok()) return Status::Corruption("expected data node page");
  const size_t n = scan.count();
  const float* blk = scan.block();
  if (blk == nullptr) {
    // Big-endian host: no in-place float block for the kernels or the
    // sidecar, so every row gets a plain exact distance.
    pool_->CountScan(n, n, /*filtered=*/false);
    for (size_t i = 0; i < n; ++i) {
      emit(metric.Distance(center, scan.vec(i)), scan.id(i));
    }
    return Status::OK();
  }
  const size_t stride = scan.stride_floats();
  // A page filtered before the pin arrives with its survivors (never
  // empty: a page with none is not fetched), so it is not filtered again.
  bool filtered = !survivors.empty();
  if (!filtered) {
    filtered = QuantFilter(page, &scan, center, metric, bound, scratch);
    if (filtered) {
      survivors = scratch->survivors;
    } else {
      pool_->CountScan(n, n, /*filtered=*/false);
    }
  }
  // A pruned row has a code lower bound above `bound`, hence a true
  // distance above it: emitting it could not have changed any caller's
  // decision. Survivors are refined in ascending row order, so the emits
  // replay the unfiltered scan's decision sequence exactly.
  if (filtered && survivors.size() * 4 <= n) {
    // Sparse survivors: per-row exact distances (Distance() accumulates
    // exactly like an unabandoned kernel row).
    for (const uint32_t i : survivors) {
      emit(metric.Distance(center, scan.vec(i)), scan.id(i));
    }
    return Status::OK();
  }
  // Dense survivors, or no filter: one bounded batch pass over the page
  // (cheaper than many strided per-row calls). Rows whose partial sum
  // exceeds `bound` are abandoned with an output above it.
  if (scratch->dist.size() < n) scratch->dist.resize(n);
  metric.BatchDistanceWithBound(center, blk, stride, n, bound,
                                scratch->dist.data());
  const double* dist = scratch->dist.data();
  if (filtered) {
    for (const uint32_t i : survivors) emit(dist[i], scan.id(i));
  } else {
    for (size_t i = 0; i < n; ++i) emit(dist[i], scan.id(i));
  }
  return Status::OK();
}

template <typename Emit, typename BeforePin>
Result<const FlatIndexNode*> HybridTree::VisitPage(
    PageId page, std::span<const float> center, const DistanceMetric& metric,
    double bound, SearchScratch* scratch, const Emit& emit,
    const BeforePin& before_pin) const {
  std::span<const uint32_t> survivors;
  if (QuantFilter(page, nullptr, center, metric, bound, scratch)) {
    if (scratch->survivors.empty()) return nullptr;
    survivors = scratch->survivors;
  }
  before_pin();
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  if (PeekNodeKind(h.data()) == NodeKind::kData) {
    HT_RETURN_NOT_OK(ScanDataPage(page, h.data(), h.size(), survivors, center,
                                  metric, bound, scratch, emit));
    return nullptr;
  }
  return ReadFlatNode(page, h.data(), h.size());
}

Status HybridTree::SearchRangeRec(PageId page,
                                  std::span<const uint32_t> survivors,
                                  std::span<const float> center,
                                  double radius, const DistanceMetric& metric,
                                  SearchScratch* scratch,
                                  std::vector<uint64_t>* out) const {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  const NodeKind kind = PeekNodeKind(h.data());
  if (kind == NodeKind::kData) {
    const auto emit = [&](double d, uint64_t id) {
      if (d <= radius) out->push_back(id);
    };
    return ScanDataPage(page, h.data(), h.size(), survivors, center, metric,
                        radius, scratch, emit);
  }
  HT_ASSIGN_OR_RETURN(const FlatIndexNode* node,
                      ReadFlatNode(page, h.data(), h.size()));
  h.Release();

  // Pruning happens at the children's live boxes (MINDIST > radius), all
  // scored by one batch call. The radius is fixed, so a child data page is
  // filtered from its sidecar here, at admission: one with no surviving
  // row never enters the prefetch batch, and the survivors of the others
  // ride along in scratch->carried to their scan.
  const double* dist =
      ChildMinDists(*node, center, metric, &scratch->child_dist);
  auto& descents = scratch->descents;
  auto& carried = scratch->carried;
  const size_t first = descents.size();
  const size_t carried_first = carried.size();
  for (size_t i = 0; i < node->num_children(); ++i) {
    if (dist[i] > radius) continue;
    SearchScratch::Descent d{node->child(i), false};
    if (QuantFilter(d.page, nullptr, center, metric, radius, scratch)) {
      const auto& surv = scratch->survivors;
      if (surv.empty()) continue;
      d.rows_begin = static_cast<uint32_t>(carried.size());
      d.rows_count = static_cast<uint32_t>(surv.size());
      carried.insert(carried.end(), surv.begin(), surv.end());
    }
    descents.push_back(d);
  }
  PrefetchDescents(first, scratch);
  Status st;
  for (size_t i = first; st.ok() && i < descents.size(); ++i) {
    const SearchScratch::Descent d = descents[i];
    std::span<const uint32_t> rows(carried);
    rows = rows.subspan(d.rows_begin, d.rows_count);
    st = SearchRangeRec(d.page, rows, center, radius, metric, scratch, out);
  }
  descents.resize(first);
  carried.resize(carried_first);
  return st;
}

Result<std::vector<std::pair<double, uint64_t>>> HybridTree::SearchKnn(
    std::span<const float> center, size_t k,
    const DistanceMetric& metric) const {
  return SearchKnnApprox(center, k, metric, /*epsilon=*/0.0);
}

Result<std::vector<std::pair<double, uint64_t>>> HybridTree::SearchKnnApprox(
    std::span<const float> center, size_t k, const DistanceMetric& metric,
    double epsilon) const {
  KnnSearchLimits limits;
  limits.epsilon = epsilon;
  std::vector<std::pair<double, uint64_t>> out;
  HT_RETURN_NOT_OK(SearchKnnBoundedInto(center, k, metric, limits,
                                        /*scratch=*/nullptr, &out));
  return out;
}

Status HybridTree::SearchKnnInto(
    std::span<const float> center, size_t k, const DistanceMetric& metric,
    SearchScratch* scratch,
    std::vector<std::pair<double, uint64_t>>* out) const {
  return SearchKnnBoundedInto(center, k, metric, KnnSearchLimits{}, scratch,
                              out);
}

Status HybridTree::SearchKnnBoundedInto(
    std::span<const float> center, size_t k, const DistanceMetric& metric,
    const KnnSearchLimits& limits, SearchScratch* scratch,
    std::vector<std::pair<double, uint64_t>>* out,
    KnnSearchInfo* info) const {
  SharedRole role(&rw_contract_);
  if (info != nullptr) *info = KnnSearchInfo{};
  if (center.size() != options_.dim) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (limits.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be non-negative");
  }
  out->clear();
  if (k == 0 || count_ == 0) return Status::OK();
  SearchScratch local;
  if (scratch == nullptr) scratch = &local;
  const double epsilon = limits.epsilon;
  const double prune_factor = 1.0 + epsilon;
  const bool eps_active = epsilon > 0.0;
  // 0 = unlimited maps to a budget the visit counter can never reach, so
  // the exact path executes the identical instruction sequence with one
  // never-taken branch per leaf.
  const size_t max_leaves = limits.max_leaf_visits == 0
                                ? std::numeric_limits<size_t>::max()
                                : limits.max_leaf_visits;
  uint64_t leaf_visits = 0;
  bool early_terminated = false;

  // Best-first branch-and-bound (Hjaltason–Samet): a min-heap of pending
  // subtrees ordered by MINDIST to their live region, and a bounded
  // max-heap of the best k candidates seen so far. Both heaps live in the
  // scratch (vector-backed push_heap/pop_heap — operation-for-operation
  // identical to std::priority_queue, but the backing stores are reused
  // across queries).
  auto& frontier = scratch->frontier;
  frontier.clear();
  frontier.push_back(SearchScratch::PageRef{0.0, root_});
  const auto frontier_gt = [](const SearchScratch::PageRef& a,
                              const SearchScratch::PageRef& b) {
    return a.dist > b.dist;
  };

  auto& best = scratch->best;
  best.clear();
  auto kth = [&]() {
    return best.size() < k ? std::numeric_limits<double>::max()
                           : best.front().first;
  };
  auto offer = [&](double d, uint64_t id) {
    if (best.size() < k) {
      best.emplace_back(d, id);
      std::push_heap(best.begin(), best.end());
    } else if (d < best.front().first ||
               (d == best.front().first && id < best.front().second)) {
      std::pop_heap(best.begin(), best.end());
      best.back() = std::make_pair(d, id);
      std::push_heap(best.begin(), best.end());
    }
  };

  const size_t prefetch_depth = options_.prefetch_depth;
  const auto frontier_lt = [](const SearchScratch::PageRef& a,
                              const SearchScratch::PageRef& b) {
    return a.dist < b.dist;
  };

  while (!frontier.empty() && frontier.front().dist * prune_factor <= kth()) {
    std::pop_heap(frontier.begin(), frontier.end(), frontier_gt);
    const SearchScratch::PageRef item = frontier.back();
    frontier.pop_back();
    // The bound is the k-th distance at page entry. It only shrinks while
    // the page is scanned, so a row the scan skips or reports above it
    // could never have entered the heap — the replacement test is a strict
    // `<`, and the id tie-break needs d == kth — and the offers make
    // exactly the decisions of an exact per-row scan.
    const double bound = kth();
    const auto prefetch = [&] {
      if (prefetch_depth == 0 || pool_->Cached(item.page)) return;
      // Frontier-driven prefetch: batch the page about to be pinned with
      // the next-best prefetch_depth frontier pages that survive the
      // current prune bound and are not ruled out by their sidecar (they
      // are the pages the traversal will pin next unless the bound
      // tightens). Gated on the page missing the pool: while the traversal
      // pops pages a previous batch brought in, no I/O is issued at all,
      // so blocking round trips collapse to roughly pops / (depth + 1)
      // instead of one per pop.
      auto& ids = scratch->prefetch_ids;
      ids.clear();
      ids.push_back(item.page);
      auto& top = scratch->prefetch_top;
      const size_t b = std::min(prefetch_depth, frontier.size());
      if (b > 0) {
        top.resize(b);
        std::partial_sort_copy(frontier.begin(), frontier.end(), top.begin(),
                               top.end(), frontier_lt);
        for (const auto& r : top) {
          if (r.dist * prune_factor <= bound &&
              !RuledOutAhead(r.page, center, metric, bound, scratch)) {
            ids.push_back(r.page);
          }
        }
      }
      pool_->Prefetch(ids);
    };
    HT_ASSIGN_OR_RETURN(const FlatIndexNode* node,
                        VisitPage(item.page, center, metric, bound, scratch,
                                  offer, prefetch));
    if (node == nullptr) {
      ++leaf_visits;
      if (leaf_visits >= max_leaves) {
        // Budget exhausted: stop with the best candidates so far. It
        // counts as early termination only if the frontier still holds a
        // subtree the exact traversal would have visited.
        early_terminated = !frontier.empty() && frontier.front().dist <= kth();
        break;
      }
      continue;
    }
    // One batch MINDIST call scores every child; the pushes then run in
    // leaf order, the same order the kd preorder produces.
    const double* dist =
        ChildMinDists(*node, center, metric, &scratch->child_dist);
    for (size_t i = 0; i < node->num_children(); ++i) {
      const double d = dist[i];
      if (d * prune_factor <= kth()) {
        frontier.push_back(SearchScratch::PageRef{d, node->child(i)});
        std::push_heap(frontier.begin(), frontier.end(), frontier_gt);
      } else if (eps_active && d <= kth()) {
        // The epsilon rule skipped a subtree the exact gate would have
        // admitted — the result is now (1+epsilon)-approximate.
        early_terminated = true;
      }
    }
  }
  // Natural loop exit under epsilon: if the frontier's best subtree passes
  // the exact gate but failed the epsilon gate, the stop was approximate.
  if (eps_active && !frontier.empty() && frontier.front().dist <= kth()) {
    early_terminated = true;
  }
  if (info != nullptr) {
    info->leaf_visits = leaf_visits;
    info->early_terminated = early_terminated;
  }

  out->resize(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    (*out)[i] = best.front();
    std::pop_heap(best.begin(), best.end());
    best.pop_back();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

Status HybridTree::Delete(std::span<const float> point, uint64_t id) {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kIngest);
  if (point.size() != options_.dim) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  HT_ASSIGN_OR_RETURN(
      DeleteOutcome outcome,
      DeleteRec(root_, Box::UnitCube(options_.dim), point, id));
  if (!outcome.found) {
    return Status::NotFound("no entry matches (point, id)");
  }
  --count_;

  if (outcome.eliminate_me) {
    // The root itself collapsed. Reset it to an empty data node and
    // reinsert the orphans below.
    DataNode empty;
    HT_RETURN_NOT_OK(WriteDataNode(root_, empty));
    els_sidecar_.erase(root_);
    InvalidateCachedNode(root_);
    height_ = 0;
  } else {
    // Shrink the tree while the root is an index node with one child.
    for (;;) {
      HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(root_));
      if (kind != NodeKind::kIndex) break;
      HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(root_));
      if (!node.root->IsLeaf()) break;
      const PageId child = node.root->child;
      els_sidecar_.erase(root_);
      InvalidateCachedNode(root_);
      quant_store_.Invalidate(root_);
      HT_RETURN_NOT_OK(pool_->Free(root_));
      root_ = child;
      --height_;
    }
  }

  // Reinsert orphans from eliminated nodes (eliminate-and-reinsert, §3.5).
  count_ -= outcome.orphans.size();
  for (auto& e : outcome.orphans) {
    HT_RETURN_NOT_OK(Insert(e.vec, e.id));
  }
  DebugValidate();
  return Status::OK();
}

Result<HybridTree::DeleteOutcome> HybridTree::DeleteRec(
    PageId page, const Box& br, std::span<const float> point, uint64_t id) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  DeleteOutcome out;
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const auto& e = node.entries[i];
      if (e.id == id && std::equal(e.vec.begin(), e.vec.end(), point.begin(),
                                   point.end())) {
        node.entries.erase(node.entries.begin() + static_cast<long>(i));
        out.found = true;
        break;
      }
    }
    if (!out.found) return out;
    const bool is_root = (page == root_);
    if (!is_root && node.entries.size() < data_min_count_) {
      out.eliminate_me = true;
      out.orphans = std::move(node.entries);
    } else {
      HT_RETURN_NOT_OK(WriteDataNode(page, node));
    }
    return out;
  }

  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  std::vector<ChildRef> kids;
  kids.reserve(node.NumChildren());
  node.CollectChildren(br, &kids);
  for (const auto& kid : kids) {
    if (!kid.kd_br.ContainsPoint(point)) continue;
    if (els_enabled()) {
      const Box live = codec_.Decode(kid.leaf->els, kid.kd_br);
      if (!live.ContainsPoint(point)) continue;
    }
    HT_ASSIGN_OR_RETURN(
        DeleteOutcome child,
        DeleteRec(kid.leaf->child, Box::UnitCube(options_.dim), point, id));
    if (!child.found) continue;
    out.found = true;
    out.orphans = std::move(child.orphans);
    if (child.eliminate_me) {
      els_sidecar_.erase(kid.leaf->child);
      InvalidateCachedNode(kid.leaf->child);
      quant_store_.Invalidate(kid.leaf->child);
      HT_RETURN_NOT_OK(pool_->Free(kid.leaf->child));
      if (kid.leaf == node.root.get()) {
        // Last child gone: eliminate this node too (parent frees the page).
        out.eliminate_me = true;
        return out;
      }
      HT_CHECK(RemoveKdLeaf(node, br, kid.leaf));
    }
    HT_RETURN_NOT_OK(WriteIndexNode(page, node));
    return out;
  }
  return out;
}

bool HybridTree::RemoveKdLeaf(IndexNode& node, const Box& node_br,
                              KdNode* target) {
  std::function<bool(std::unique_ptr<KdNode>&, const Box&)> rec =
      [&](std::unique_ptr<KdNode>& n, const Box& br) -> bool {
    if (n->IsLeaf()) return false;
    if (n->left.get() == target) {
      // The sibling subtree inherits the whole parent region (its leaf
      // regions widen); re-map its ELS codes.
      const Box old_br = KdRightBr(br, *n);
      auto sib = std::move(n->right);
      ReencodeSubtree(sib.get(), old_br, br);
      n = std::move(sib);
      return true;
    }
    if (n->right.get() == target) {
      const Box old_br = KdLeftBr(br, *n);
      auto sib = std::move(n->left);
      ReencodeSubtree(sib.get(), old_br, br);
      n = std::move(sib);
      return true;
    }
    return rec(n->left, KdLeftBr(br, *n)) || rec(n->right, KdRightBr(br, *n));
  };
  if (node.root.get() == target) return false;
  return rec(node.root, node_br);
}

// ---------------------------------------------------------------------------
// Maintenance: ELS rebuild, stats, invariants
// ---------------------------------------------------------------------------

Status HybridTree::RebuildEls() {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kScan);
  if (!els_enabled()) return Status::OK();
  HT_ASSIGN_OR_RETURN(Box live,
                      RebuildElsRec(root_, Box::UnitCube(options_.dim)));
  (void)live;
  DebugValidate();
  return Status::OK();
}

Result<Box> HybridTree::RebuildElsRec(PageId page, const Box& br) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    return node.ComputeLiveBr(options_.dim);
  }
  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  Box node_live = Box::Empty(options_.dim);
  // Read-ahead for the Open()-path DFS: every child will be visited, so
  // batch the fanout into one round trip before recursing.
  if (options_.prefetch_depth > 0) {
    std::vector<PageId> children;
    std::function<void(const KdNode*)> collect = [&](const KdNode* n) {
      if (n->IsLeaf()) {
        children.push_back(n->child);
        return;
      }
      collect(n->left.get());
      collect(n->right.get());
    };
    collect(node.root.get());
    if (children.size() > 1) pool_->Prefetch(children);
  }
  HT_RETURN_NOT_OK(RebuildElsKd(node.root.get(), br, &node_live));
  HT_RETURN_NOT_OK(WriteIndexNode(page, node));
  return node_live;
}

Status HybridTree::RebuildElsKd(KdNode* n, const Box& nbr, Box* node_live) {
  if (n->IsLeaf()) {
    HT_ASSIGN_OR_RETURN(Box child_live,
                        RebuildElsRec(n->child, Box::UnitCube(options_.dim)));
    n->els = codec_.Encode(child_live, nbr);
    node_live->ExtendToInclude(child_live);
    return Status::OK();
  }
  HT_RETURN_NOT_OK(RebuildElsKd(n->left.get(), KdLeftBr(nbr, *n), node_live));
  return RebuildElsKd(n->right.get(), KdRightBr(nbr, *n), node_live);
}

Result<TreeStats> HybridTree::ComputeStats() {
  ExclusiveRole role(&rw_contract_);
  AccessClassScope ac(AccessClass::kScan);
  TreeStats stats;
  stats.entry_count = count_;
  stats.height = height_;
  double data_util_sum = 0.0;
  HT_RETURN_NOT_OK(ComputeStatsRec(root_, Box::UnitCube(options_.dim), &stats,
                                   &data_util_sum));
  if (stats.data_nodes > 0) {
    stats.avg_data_utilization =
        data_util_sum / static_cast<double>(stats.data_nodes);
  }
  if (stats.index_nodes > 0) {
    stats.avg_index_fanout /= static_cast<double>(stats.index_nodes);
  }
  if (stats.overlapping_kd_splits > 0) {
    stats.avg_overlap_fraction /=
        static_cast<double>(stats.overlapping_kd_splits);
  }
  for (const auto& [pid, blob] : els_sidecar_) {
    stats.els_sidecar_bytes += blob.size();
  }
  std::sort(stats.levels.begin(), stats.levels.end(),
            [](const LevelStats& a, const LevelStats& b) {
              return a.level > b.level;
            });
  for (auto& lv : stats.levels) {
    lv.avg_fanout = lv.nodes
                        ? static_cast<double>(lv.children) /
                              static_cast<double>(lv.nodes)
                        : 0.0;
  }
  return stats;
}

Status HybridTree::ComputeStatsRec(PageId page, const Box& br,
                                   TreeStats* stats, double* data_util_sum) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  auto level_slot = [&](uint32_t level) -> LevelStats& {
    for (auto& lv : stats->levels) {
      if (lv.level == level) return lv;
    }
    stats->levels.push_back(LevelStats{level, 0, 0, 0.0});
    return stats->levels.back();
  };
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    LevelStats& lv = level_slot(0);
    ++lv.nodes;
    lv.children += node.entries.size();
    ++stats->data_nodes;
    const double util = static_cast<double>(node.entries.size()) /
                        static_cast<double>(data_capacity_);
    *data_util_sum += util;
    if (page != root_ && util < stats->min_data_utilization) {
      stats->min_data_utilization = util;
    }
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  ++stats->index_nodes;
  LevelStats& lv = level_slot(node.level);
  ++lv.nodes;
  lv.children += node.NumChildren();
  stats->avg_index_fanout += static_cast<double>(node.NumChildren());
  return ComputeStatsKd(node.root.get(), br, stats, data_util_sum);
}

Status HybridTree::ComputeStatsKd(const KdNode* n, const Box& nbr,
                                  TreeStats* stats, double* data_util_sum) {
  if (n->IsLeaf()) {
    return ComputeStatsRec(n->child, Box::UnitCube(options_.dim), stats,
                           data_util_sum);
  }
  ++stats->kd_internal_nodes;
  if (n->lsp > n->rsp) {
    ++stats->overlapping_kd_splits;
    const double extent = nbr.Extent(n->split_dim);
    if (extent > 0) {
      stats->avg_overlap_fraction +=
          (static_cast<double>(n->lsp) - n->rsp) / extent;
    }
  }
  HT_RETURN_NOT_OK(ComputeStatsKd(n->left.get(), KdLeftBr(nbr, *n), stats,
                                  data_util_sum));
  return ComputeStatsKd(n->right.get(), KdRightBr(nbr, *n), stats,
                        data_util_sum);
}

Status HybridTree::CheckInvariants() {
  AccessClassScope ac(AccessClass::kScan);
  // The checks live in TreeValidator (src/core/validator.h), which is
  // strictly stronger than the old in-class walk: it also verifies ELS
  // conservativeness against exact subtree live boxes, the codec
  // round-trip contract, child-page uniqueness, and pin accounting.
  TreeValidator validator(this);
  return validator.Validate();
}

void HybridTree::DebugValidate() {
#ifdef HT_DEBUG_VALIDATE
  TreeValidator validator(this);
  HT_CHECK_OK(validator.Validate());
#endif
}

Status HybridTree::CollectSubtreeEntries(PageId page,
                                         std::vector<DataEntry>* out,
                                         std::vector<PageId>* pages) {
  pages->push_back(page);
  HT_ASSIGN_OR_RETURN(NodeKind kind, PeekKind(page));
  if (kind == NodeKind::kData) {
    HT_ASSIGN_OR_RETURN(DataNode node, ReadDataNode(page));
    for (auto& e : node.entries) out->push_back(std::move(e));
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(IndexNode node, ReadIndexNode(page));
  std::vector<ChildRef> kids;
  kids.reserve(node.NumChildren());
  node.CollectChildren(Box::UnitCube(options_.dim), &kids);
  for (const auto& kid : kids) {
    HT_RETURN_NOT_OK(CollectSubtreeEntries(kid.leaf->child, out, pages));
  }
  return Status::OK();
}


HybridTree::KnnCursor::KnnCursor(const HybridTree* tree,
                                 std::span<const float> center,
                                 const DistanceMetric* metric,
                                 const KnnCursorOptions& opts)
    : tree_(tree),
      center_(center.begin(), center.end()),
      metric_(metric),
      opts_(opts) {
  // The self-bound heap never holds more entries than the tree has rows,
  // so a huge declared limit cannot force a huge reservation.
  if (opts_.limit > 0) {
    best_.reserve(static_cast<size_t>(
        std::min<uint64_t>(opts_.limit, tree_->count_)));
  }
  if (tree_->count_ > 0) {
    queue_.push(Item{0.0, false, 0, tree_->root_});
  }
}

double HybridTree::KnnCursor::SelfBound() const {
  return (opts_.limit > 0 && best_.size() == opts_.limit)
             ? best_.front()
             : std::numeric_limits<double>::max();
}

double HybridTree::KnnCursor::ScanBound() const {
  double b = SelfBound();
  if (opts_.shared_bound != nullptr) {
    // Relaxed: a monotonically tightening pruning hint with no associated
    // data — a stale (too large) radius only weakens pruning, never
    // correctness (the same contract as serve's SharedTopK bound mirror).
    b = std::min(b, opts_.shared_bound->load(std::memory_order_relaxed));
  }
  return b;
}

double HybridTree::KnnCursor::ExpandBound() const {
  // With an approximation knob active, WHICH leaves get scanned decides
  // the result (the budget truncates the stream), so expansion may only
  // consult the deterministic self bound — never the racy cross-shard
  // radius. In fully exact mode any sound bound is fair game: a pruned
  // subtree provably cannot contribute to the declared-limit prefix.
  if (opts_.epsilon == 0.0 && opts_.max_leaf_visits == 0) return ScanBound();
  return SelfBound();
}

void HybridTree::KnnCursor::RecordEntry(double d) {
  if (opts_.limit == 0) return;
  if (best_.size() < opts_.limit) {
    best_.push_back(d);
    std::push_heap(best_.begin(), best_.end());
  } else if (d < best_.front()) {
    std::pop_heap(best_.begin(), best_.end());
    best_.back() = d;
    std::push_heap(best_.begin(), best_.end());
  }
}

HybridTree::KnnCursor HybridTree::OpenKnnCursor(
    std::span<const float> center, const DistanceMetric& metric) const {
  return OpenKnnCursor(center, metric, KnnCursorOptions{});
}

HybridTree::KnnCursor HybridTree::OpenKnnCursor(
    std::span<const float> center, const DistanceMetric& metric,
    const KnnCursorOptions& opts) const {
  HT_CHECK(center.size() == options_.dim);
  HT_CHECK(opts.epsilon >= 0.0);
  return KnnCursor(this, center, &metric, opts);
}

Result<std::optional<std::pair<double, uint64_t>>>
HybridTree::KnnCursor::Next() {
  // The cursor is a read-path client: each pull runs under the tree's
  // shared role (the caller must not mutate the tree between pulls).
  SharedRole role(&tree_->rw_contract_);
  const size_t max_leaves = opts_.max_leaf_visits == 0
                                ? std::numeric_limits<size_t>::max()
                                : opts_.max_leaf_visits;
  // Distance browsing: entries and subtrees share one priority queue keyed
  // by (lower-bound) distance; when an entry surfaces, its distance is
  // exact and no unexpanded subtree can beat it.
  while (!queue_.empty()) {
    const Item item = queue_.top();
    if (item.is_entry) {
      queue_.pop();
      return std::optional<std::pair<double, uint64_t>>(
          std::make_pair(item.dist, item.id));
    }
    if (leaf_visits_ >= max_leaves) {
      // Visit budget exhausted: no further page may be scanned, so every
      // pending subtree is dead — only already-materialized entries flow
      // out. (Unreachable without a budget.)
      queue_.pop();
      if (item.dist <= SelfBound()) early_terminated_ = true;
      continue;
    }
    const double eb = ExpandBound();
    if (item.dist * (1.0 + opts_.epsilon) > eb) {
      // Pruned subtree. In exact mode everything below it lies strictly
      // beyond the running bound (its entries would all be dropped at scan
      // time), so the declared-limit prefix is unchanged; with epsilon > 0
      // this is the (1+epsilon)-approximate skip.
      queue_.pop();
      if (opts_.epsilon > 0.0 && item.dist <= eb) early_terminated_ = true;
      continue;
    }
    queue_.pop();
    // The running bound at page entry, one snapshot for the sidecar filter
    // and the refine alike: the cursor's own k-th distance, tightened by
    // the shared cross-shard radius, which other threads may lower at any
    // time. An entry strictly beyond it can never be used by a consumer
    // honoring the declared limit (there are already `limit` entries at or
    // under the bound, all emitted first), so it is dropped; ties at the
    // bound are kept so downstream id tie-breaking sees every boundary
    // candidate. With no declared bound this is +inf and every entry is
    // enqueued with its exact distance.
    const double bound = ScanBound();
    const auto emit = [&](double d, uint64_t id) {
      if (d > bound) return;
      RecordEntry(d);
      queue_.push(Item{d, true, id, kInvalidPageId});
    };
    HT_ASSIGN_OR_RETURN(const FlatIndexNode* node,
                        tree_->VisitPage(item.page, center_, *metric_, bound,
                                         &scratch_, emit, [] {}));
    if (node == nullptr) {
      ++leaf_visits_;
      continue;
    }
    const double* dist =
        ChildMinDists(*node, center_, *metric_, &scratch_.child_dist);
    for (size_t i = 0; i < node->num_children(); ++i) {
      const double d = dist[i];
      if (d * (1.0 + opts_.epsilon) <= eb) {
        queue_.push(Item{d, false, 0, node->child(i)});
      } else if (opts_.epsilon > 0.0 && d <= eb) {
        early_terminated_ = true;
      }
    }
  }
  return std::optional<std::pair<double, uint64_t>>();
}

void HybridTree::DumpTree() {
  // Uses the mutating node readers (exact on-disk view, no cache fill), so
  // it runs under the exclusive role like any other maintenance pass.
  ExclusiveRole role(&rw_contract_);
  DumpTreeRec(root_, Box::UnitCube(options_.dim), 0);
}

void HybridTree::DumpTreeRec(PageId page, const Box& br, int depth) {
  auto kind = PeekKind(page).ValueOrDie();
  if (kind == NodeKind::kData) {
    auto node = ReadDataNode(page).ValueOrDie();
    std::printf("%*sdata page=%u n=%zu live=%s region=%s\n", depth * 2, "",
                page, node.entries.size(),
                node.ComputeLiveBr(options_.dim).ToString().c_str(),
                br.ToString().c_str());
    return;
  }
  auto node = ReadIndexNode(page).ValueOrDie();
  std::printf("%*sindex page=%u level=%d children=%zu region=%s\n",
              depth * 2, "", page, node.level, node.NumChildren(),
              br.ToString().c_str());
  std::vector<ChildRef> kids;
  node.CollectChildren(br, &kids);
  for (auto& kid : kids) {
    Box live = els_enabled() ? codec_.Decode(kid.leaf->els, kid.kd_br)
                             : kid.kd_br;
    std::printf("%*s-> child=%u kd=%s els=%s\n", depth * 2 + 1, "",
                kid.leaf->child, kid.kd_br.ToString().c_str(),
                live.ToString().c_str());
    DumpTreeRec(kid.leaf->child, Box::UnitCube(options_.dim), depth + 1);
  }
}

}  // namespace ht

#include "core/node.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/codec.h"
#include "common/macros.h"

namespace ht {

// ---------------------------------------------------------------------------
// DataNode
// ---------------------------------------------------------------------------

Box DataNode::ComputeLiveBr(uint32_t dim) const {
  Box br = Box::Empty(dim);
  for (const auto& e : entries) br.ExtendToInclude(e.vec);
  return br;
}

void DataNode::Serialize(uint8_t* page, size_t page_size, uint32_t dim) const {
  Writer w(page, page_size);
  w.PutU8(static_cast<uint8_t>(NodeKind::kData));
  w.PutU8(0);
  HT_CHECK(entries.size() <= 0xffff);
  w.PutU16(static_cast<uint16_t>(entries.size()));
  for (const auto& e : entries) {
    HT_DCHECK(e.vec.size() == dim);
    w.PutU64(e.id);
    for (uint32_t d = 0; d < dim; ++d) w.PutF32(e.vec[d]);
  }
}

Result<DataNode> DataNode::Deserialize(const uint8_t* page, size_t page_size,
                                       uint32_t dim) {
  Reader r(page, page_size);
  const uint8_t kind = r.GetU8();
  if (kind != static_cast<uint8_t>(NodeKind::kData)) {
    return Status::Corruption("expected data node page");
  }
  r.GetU8();
  const uint16_t count = r.GetU16();
  DataNode node;
  node.entries.resize(count);
  for (uint16_t i = 0; i < count; ++i) {
    node.entries[i].id = r.GetU64();
    node.entries[i].vec.resize(dim);
    for (uint32_t d = 0; d < dim; ++d) node.entries[i].vec[d] = r.GetF32();
  }
  HT_RETURN_NOT_OK(r.status());
  return node;
}

// ---------------------------------------------------------------------------
// DataPageScan
// ---------------------------------------------------------------------------

DataPageScan::DataPageScan(const uint8_t* page, size_t page_size,
                           uint32_t dim)
    : page_(page), dim_(dim) {
  if (page_size < DataNode::kHeaderBytes ||
      page[0] != static_cast<uint8_t>(NodeKind::kData)) {
    return;
  }
  count_ = static_cast<size_t>(page[2]) | (static_cast<size_t>(page[3]) << 8);
  stride_ = DataNode::EntryBytes(dim);
  if (DataNode::kHeaderBytes + count_ * stride_ > page_size) {
    count_ = 0;
    return;
  }
  ok_ = true;
  if constexpr (std::endian::native != std::endian::little) {
    scratch_.resize(dim);
  }
}

uint64_t DataPageScan::id(size_t i) const {
  HT_DCHECK(i < count_);
  const uint8_t* p = page_ + DataNode::kHeaderBytes + i * stride_;
  uint64_t v = 0;
  for (int b = 7; b >= 0; --b) v = (v << 8) | p[b];
  return v;
}

const float* DataPageScan::block() const {
  if (!ok_) return nullptr;
  if constexpr (std::endian::native == std::endian::little) {
    // Entries start at offset 4 with a 4-divisible stride, so every row's
    // float payload (8 bytes past the entry start) is 4-byte aligned.
    return reinterpret_cast<const float*>(page_ + DataNode::kHeaderBytes + 8);
  } else {
    return nullptr;
  }
}

std::span<const float> DataPageScan::vec(size_t i) const {
  HT_DCHECK(i < count_);
  const uint8_t* p = page_ + DataNode::kHeaderBytes + i * stride_ + 8;
  if constexpr (std::endian::native == std::endian::little) {
    // Entries start at offset 4 and have a 4-divisible stride, so the
    // float payload (8 bytes in) is 4-byte aligned.
    return std::span<const float>(reinterpret_cast<const float*>(p), dim_);
  } else {
    for (uint32_t d = 0; d < dim_; ++d) {
      uint32_t bits = static_cast<uint32_t>(p[4 * d]) |
                      (static_cast<uint32_t>(p[4 * d + 1]) << 8) |
                      (static_cast<uint32_t>(p[4 * d + 2]) << 16) |
                      (static_cast<uint32_t>(p[4 * d + 3]) << 24);
      float v;
      std::memcpy(&v, &bits, sizeof(v));
      scratch_[d] = v;
    }
    return scratch_;
  }
}

// ---------------------------------------------------------------------------
// KdNode helpers
// ---------------------------------------------------------------------------

std::unique_ptr<KdNode> KdNode::Clone() const {
  auto n = std::make_unique<KdNode>();
  n->split_dim = split_dim;
  n->lsp = lsp;
  n->rsp = rsp;
  n->child = child;
  n->els = els;
  if (left) n->left = left->Clone();
  if (right) n->right = right->Clone();
  return n;
}

Box KdLeftBr(const Box& br, const KdNode& n) {
  Box b = br;
  if (n.lsp < b.hi(n.split_dim)) b.set_hi(n.split_dim, n.lsp);
  return b;
}

Box KdRightBr(const Box& br, const KdNode& n) {
  Box b = br;
  if (n.rsp > b.lo(n.split_dim)) b.set_lo(n.split_dim, n.rsp);
  return b;
}

// ---------------------------------------------------------------------------
// IndexNode
// ---------------------------------------------------------------------------

namespace {

size_t CountChildren(const KdNode* n) {
  if (n == nullptr) return 0;
  if (n->IsLeaf()) return 1;
  return CountChildren(n->left.get()) + CountChildren(n->right.get());
}

size_t CountKdNodes(const KdNode* n) {
  if (n == nullptr) return 0;
  if (n->IsLeaf()) return 1;
  return 1 + CountKdNodes(n->left.get()) + CountKdNodes(n->right.get());
}

void CollectChildrenRec(KdNode* n, const Box& br,
                        std::vector<ChildRef>* out) {
  if (n->IsLeaf()) {
    out->push_back(ChildRef{n, br});
    return;
  }
  CollectChildrenRec(n->left.get(), KdLeftBr(br, *n), out);
  CollectChildrenRec(n->right.get(), KdRightBr(br, *n), out);
}

void CollectUsedDimsRec(const KdNode* n, std::vector<bool>* used) {
  if (n == nullptr || n->IsLeaf()) return;
  (*used)[n->split_dim] = true;
  CollectUsedDimsRec(n->left.get(), used);
  CollectUsedDimsRec(n->right.get(), used);
}

}  // namespace

size_t IndexNode::NumChildren() const { return CountChildren(root.get()); }
size_t IndexNode::NumKdNodes() const { return CountKdNodes(root.get()); }

std::vector<uint32_t> IndexNode::UsedDims(uint32_t dim) const {
  std::vector<bool> used(dim, false);
  CollectUsedDimsRec(root.get(), &used);
  std::vector<uint32_t> out;
  for (uint32_t d = 0; d < dim; ++d) {
    if (used[d]) out.push_back(d);
  }
  return out;
}

void IndexNode::CollectChildren(const Box& node_br,
                                std::vector<ChildRef>* out) const {
  out->clear();
  if (root) CollectChildrenRec(root.get(), node_br, out);
}

// ---------------------------------------------------------------------------
// IndexNode serialization
//
// Layout: kind u8, level u8, kd_count u16, root implicit at record 0.
// Records are flattened in preorder. Internal: tag=0, dim u16, lsp f32,
// rsp f32, left u16, right u16. Leaf: tag=1, child u32, [els code bytes].
// ---------------------------------------------------------------------------

namespace {
constexpr size_t kIndexHeaderBytes = 4;
constexpr size_t kInternalRecordBytes = 1 + 2 + 4 + 4 + 2 + 2;
constexpr size_t kLeafRecordBytes = 1 + 4;

size_t SerializedSizeRec(const KdNode* n, bool els_in_page) {
  if (n->IsLeaf()) {
    return kLeafRecordBytes + (els_in_page ? n->els.size() : 0);
  }
  return kInternalRecordBytes + SerializedSizeRec(n->left.get(), els_in_page) +
         SerializedSizeRec(n->right.get(), els_in_page);
}

void FlattenPreorder(KdNode* n, std::vector<KdNode*>* out) {
  out->push_back(n);
  if (!n->IsLeaf()) {
    FlattenPreorder(n->left.get(), out);
    FlattenPreorder(n->right.get(), out);
  }
}

void CollectLeavesRec(KdNode* n, std::vector<KdNode*>* out) {
  if (n->IsLeaf()) {
    out->push_back(n);
    return;
  }
  CollectLeavesRec(n->left.get(), out);
  CollectLeavesRec(n->right.get(), out);
}

}  // namespace

size_t IndexNode::SerializedSize(bool els_in_page) const {
  return kIndexHeaderBytes +
         (root ? SerializedSizeRec(root.get(), els_in_page) : 0);
}

void IndexNode::Serialize(uint8_t* page, size_t page_size, bool els_in_page,
                          size_t els_code_bytes) const {
  std::vector<KdNode*> order;
  if (root) FlattenPreorder(root.get(), &order);
  HT_CHECK(order.size() <= 0xffff);

  // Preorder positions for child index fields. Linear scan per lookup is
  // fine at intra-node scale (at most a few hundred kd nodes per page).
  std::vector<const KdNode*> ptrs(order.begin(), order.end());
  auto index_of = [&](const KdNode* n) -> uint16_t {
    for (size_t i = 0; i < ptrs.size(); ++i) {
      if (ptrs[i] == n) return static_cast<uint16_t>(i);
    }
    HT_CHECK(false);
    return 0;
  };

  Writer w(page, page_size);
  w.PutU8(static_cast<uint8_t>(NodeKind::kIndex));
  w.PutU8(level);
  w.PutU16(static_cast<uint16_t>(order.size()));
  for (const KdNode* n : order) {
    if (n->IsLeaf()) {
      w.PutU8(1);
      w.PutU32(n->child);
      if (els_in_page && els_code_bytes > 0) {
        // The tree maintains the invariant that every leaf carries a code
        // whenever ELS is enabled (codes are computed at split time).
        HT_CHECK(n->els.size() == els_code_bytes);
        w.PutBytes(n->els.data(), n->els.size());
      }
    } else {
      w.PutU8(0);
      w.PutU16(static_cast<uint16_t>(n->split_dim));
      w.PutF32(n->lsp);
      w.PutF32(n->rsp);
      w.PutU16(index_of(n->left.get()));
      w.PutU16(index_of(n->right.get()));
    }
  }
}

Result<IndexNode> IndexNode::Deserialize(const uint8_t* page, size_t page_size,
                                         bool els_in_page,
                                         size_t els_code_bytes, uint32_t dim) {
  Reader r(page, page_size);
  const uint8_t kind = r.GetU8();
  if (kind != static_cast<uint8_t>(NodeKind::kIndex)) {
    return Status::Corruption("expected index node page");
  }
  IndexNode node;
  node.level = r.GetU8();
  const uint16_t count = r.GetU16();
  if (count == 0) return Status::Corruption("index node with no kd nodes");

  struct Raw {
    bool leaf;
    uint32_t dim;
    float lsp, rsp;
    uint16_t left, right;
    PageId child;
    ElsCode els;
  };
  std::vector<Raw> raws(count);
  for (uint16_t i = 0; i < count; ++i) {
    Raw& raw = raws[i];
    raw.leaf = r.GetU8() == 1;
    if (raw.leaf) {
      raw.child = r.GetU32();
      if (els_in_page && els_code_bytes > 0) {
        raw.els.resize(els_code_bytes);
        r.GetBytes(raw.els.data(), els_code_bytes);
      }
    } else {
      raw.dim = r.GetU16();
      if (dim != 0 && raw.dim >= dim) {
        return Status::Corruption("kd split dimension out of range");
      }
      raw.lsp = r.GetF32();
      raw.rsp = r.GetF32();
      raw.left = r.GetU16();
      raw.right = r.GetU16();
      if (raw.left >= count || raw.right >= count) {
        return Status::Corruption("kd child index out of range");
      }
    }
  }
  HT_RETURN_NOT_OK(r.status());

  // Rebuild the pointer tree. Records were written in preorder, so every
  // child index is greater than its parent's; build back-to-front.
  std::vector<std::unique_ptr<KdNode>> nodes(count);
  for (int i = count - 1; i >= 0; --i) {
    const Raw& raw = raws[i];
    auto n = std::make_unique<KdNode>();
    if (raw.leaf) {
      n->child = raw.child;
      n->els = std::move(raws[i].els);
    } else {
      n->split_dim = raw.dim;
      n->lsp = raw.lsp;
      n->rsp = raw.rsp;
      // raw.left == raw.right would pass the null checks (both are still
      // unconsumed here) and then the second move below would leave a
      // half-linked internal node — found by fuzzing, so checked first.
      if (raw.left == raw.right || raw.left <= static_cast<uint16_t>(i) ||
          raw.right <= static_cast<uint16_t>(i) || !nodes[raw.left] ||
          !nodes[raw.right]) {
        return Status::Corruption("kd tree preorder violated");
      }
      n->left = std::move(nodes[raw.left]);
      n->right = std::move(nodes[raw.right]);
    }
    nodes[i] = std::move(n);
  }
  node.root = std::move(nodes[0]);
  return node;
}

std::vector<uint8_t> IndexNode::ExtractElsBlob(size_t els_code_bytes) const {
  std::vector<KdNode*> leaves;
  if (root) CollectLeavesRec(root.get(), &leaves);
  std::vector<uint8_t> blob;
  blob.reserve(leaves.size() * els_code_bytes);
  for (const KdNode* leaf : leaves) {
    HT_CHECK(leaf->els.size() == els_code_bytes);
    blob.insert(blob.end(), leaf->els.begin(), leaf->els.end());
  }
  return blob;
}

void IndexNode::AttachElsBlob(const std::vector<uint8_t>& blob,
                              size_t els_code_bytes) {
  std::vector<KdNode*> leaves;
  if (root) CollectLeavesRec(root.get(), &leaves);
  if (blob.size() != leaves.size() * els_code_bytes) return;  // stale sidecar
  for (size_t i = 0; i < leaves.size(); ++i) {
    leaves[i]->els.assign(blob.begin() + i * els_code_bytes,
                          blob.begin() + (i + 1) * els_code_bytes);
  }
}

// ---------------------------------------------------------------------------
// FlatIndexNode
// ---------------------------------------------------------------------------

FlatIndexNode::FlatIndexNode(const IndexNode& node, uint32_t dim,
                             const ElsCodec* codec)
    : dim_(dim) {
  const size_t n = node.NumChildren();
  stride_ = (n + kernels::kBoxLanes - 1) / kernels::kBoxLanes *
            kernels::kBoxLanes;
  bounds_.assign(2 * static_cast<size_t>(dim_) * stride_, 0.0f);
  children_.reserve(n);
  kd_.reserve(n > 0 ? n - 1 : 0);
  if (node.root != nullptr) Flatten(*node.root, Box::UnitCube(dim_), codec);
}

void FlatIndexNode::Flatten(const KdNode& n, const Box& region,
                            const ElsCodec* codec) {
  if (n.IsLeaf()) {
    const size_t leaf = children_.size();
    children_.push_back(n.child);
    const Box live = codec != nullptr ? codec->Decode(n.els, region) : region;
    float* lo = bounds_.data();
    float* hi = lo + dim_ * stride_;
    for (uint32_t d = 0; d < dim_; ++d) {
      lo[d * stride_ + leaf] = live.lo(d);
      hi[d * stride_ + leaf] = live.hi(d);
    }
    return;
  }
  // Preorder: this node's slot precedes its subtrees'; its leaf range is
  // known once both are flattened.
  const size_t at = kd_.size();
  kd_.push_back(FlatKdNode{n.split_dim, n.lsp, n.rsp,
                           static_cast<uint32_t>(children_.size()), 0, 0});
  Flatten(*n.left, KdLeftBr(region, n), codec);
  kd_[at].mid = static_cast<uint32_t>(children_.size());
  Flatten(*n.right, KdRightBr(region, n), codec);
  kd_[at].end = static_cast<uint32_t>(children_.size());
}

namespace {

void Reach(uint32_t leaf, uint64_t* reached) {
  reached[leaf / 64] |= uint64_t{1} << (leaf % 64);
}

/// RouteBox below internal node j: a side is entered when the query's
/// 1-d interval reaches it.
void RouteFrom(const FlatKdNode* kd, uint32_t j, const float* qlo,
               const float* qhi, uint64_t* reached) {
  const FlatKdNode& k = kd[j];
  if (qlo[k.split_dim] <= k.lsp) {
    if (k.mid - k.begin == 1) {
      Reach(k.begin, reached);
    } else {
      RouteFrom(kd, j + 1, qlo, qhi, reached);
    }
  }
  if (qhi[k.split_dim] >= k.rsp) {
    if (k.end - k.mid == 1) {
      Reach(k.mid, reached);
    } else {
      RouteFrom(kd, j + (k.mid - k.begin), qlo, qhi, reached);
    }
  }
}

}  // namespace

void FlatIndexNode::RouteBox(const Box& query, uint64_t* reached) const {
  std::fill_n(reached, (children_.size() + 63) / 64, uint64_t{0});
  if (!kd_.empty()) {
    RouteFrom(kd_.data(), 0, query.lo().data(), query.hi().data(), reached);
  } else if (children_.size() == 1) {
    Reach(0, reached);
  }
}

NodeKind PeekNodeKind(const uint8_t* page) {
  return static_cast<NodeKind>(page[0]);
}

}  // namespace ht

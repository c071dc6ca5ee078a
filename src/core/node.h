// Copyright 2026 The HybridTree Authors.
// In-memory node representations and page (de)serialization for the
// hybrid tree (§3.1 of the paper).
//
// A data node stores (id, vector) entries. An index node stores a kd-tree
// whose internal nodes carry a split dimension and *two* split positions —
// lsp, the upper boundary of the left partition, and rsp, the lower
// boundary of the right partition. lsp == rsp is a clean split; lsp > rsp
// encodes an overlapping split (allowed only when a clean split would have
// cascaded, §3.1); lsp < rsp encodes a gap (dead space owned by neither
// side, produced by the minimum-overlap bipartition). The kd-tree's leaves
// are the node's children; each leaf optionally carries an ELS code (§3.4).

#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/els.h"
#include "geometry/box.h"
#include "storage/page.h"

namespace ht {

// ---------------------------------------------------------------------------
// Data nodes
// ---------------------------------------------------------------------------

/// One indexed object: external id + feature vector.
struct DataEntry {
  uint64_t id = 0;
  std::vector<float> vec;
};

/// Leaf page: a flat bag of entries.
struct DataNode {
  std::vector<DataEntry> entries;

  static constexpr size_t kHeaderBytes = 4;  // kind u8, pad u8, count u16
  static size_t EntryBytes(uint32_t dim) { return 8 + 4 * static_cast<size_t>(dim); }
  /// Max entries per page.
  static size_t Capacity(uint32_t dim, size_t page_size) {
    return (page_size - kHeaderBytes) / EntryBytes(dim);
  }

  /// Exact bounding box of the stored entries (the live BR).
  Box ComputeLiveBr(uint32_t dim) const;

  void Serialize(uint8_t* page, size_t page_size, uint32_t dim) const;
  static Result<DataNode> Deserialize(const uint8_t* page, size_t page_size,
                                      uint32_t dim);
};

/// Zero-copy read access to a serialized data page: queries scan entries
/// in place instead of materializing a DataNode (which allocates one
/// vector per entry — far too expensive on the search hot path).
///
/// The fast path reinterprets the page's little-endian float32 payload
/// directly (entries are 4-byte aligned by construction); on big-endian
/// platforms coordinates are decoded into a scratch row per access.
class DataPageScan {
 public:
  DataPageScan(const uint8_t* page, size_t page_size, uint32_t dim);

  /// False when the page is not a data page (callers must check).
  bool ok() const { return ok_; }
  size_t count() const { return count_; }

  uint64_t id(size_t i) const;
  std::span<const float> vec(size_t i) const;

  /// Little-endian fast path for batch distance kernels: the page's float
  /// payload as one contiguous row-major block. Row i's vector starts at
  /// block() + i * stride_floats() (the next entry's 8-byte id prefix
  /// rides along inside the stride). Returns nullptr when the page is not
  /// a valid data page or on big-endian hosts — callers must then fall
  /// back to per-row vec().
  const float* block() const;
  /// Row-to-row stride of block(), in floats (= dim + 2).
  size_t stride_floats() const { return stride_ / sizeof(float); }

 private:
  const uint8_t* page_;
  uint32_t dim_;
  size_t count_ = 0;
  size_t stride_ = 0;
  bool ok_ = false;
  mutable std::vector<float> scratch_;  // big-endian fallback only
};

// ---------------------------------------------------------------------------
// Index nodes
// ---------------------------------------------------------------------------

/// Intra-node kd-tree node. A leaf (left == nullptr) references one child
/// page of the hybrid tree; an internal node splits the region on
/// `split_dim` at positions (lsp, rsp).
struct KdNode {
  std::unique_ptr<KdNode> left;
  std::unique_ptr<KdNode> right;
  uint32_t split_dim = 0;
  float lsp = 0.0f;
  float rsp = 0.0f;
  // Leaf payload.
  PageId child = kInvalidPageId;
  ElsCode els;

  bool IsLeaf() const { return left == nullptr; }

  static std::unique_ptr<KdNode> MakeLeaf(PageId child, ElsCode els = {}) {
    auto n = std::make_unique<KdNode>();
    n->child = child;
    n->els = std::move(els);
    return n;
  }
  static std::unique_ptr<KdNode> MakeInternal(uint32_t dim, float lsp,
                                              float rsp,
                                              std::unique_ptr<KdNode> l,
                                              std::unique_ptr<KdNode> r) {
    auto n = std::make_unique<KdNode>();
    n->split_dim = dim;
    n->lsp = lsp;
    n->rsp = rsp;
    n->left = std::move(l);
    n->right = std::move(r);
    return n;
  }

  std::unique_ptr<KdNode> Clone() const;
};

/// The BR of the left/right kd child given the parent region `br`
/// (the "logical mapping" of §3.1: left = br ∩ {x_d <= lsp},
/// right = br ∩ {x_d >= rsp}).
Box KdLeftBr(const Box& br, const KdNode& n);
Box KdRightBr(const Box& br, const KdNode& n);

/// A child reference materialized from the kd-tree: the leaf, its kd
/// region, and (when requested) its decoded live box.
struct ChildRef {
  KdNode* leaf = nullptr;
  Box kd_br;
};

/// Index page: intra-node kd-tree plus the tree level of this node
/// (level 1 = children are data nodes).
struct IndexNode {
  uint8_t level = 1;
  std::unique_ptr<KdNode> root;

  size_t NumChildren() const;
  /// Count of kd-tree nodes (internal + leaf).
  size_t NumKdNodes() const;
  /// Dimensions used by any internal kd node (the set D_n of Lemma 1).
  std::vector<uint32_t> UsedDims(uint32_t dim) const;

  /// All leaves with their kd regions, in left-to-right order.
  void CollectChildren(const Box& node_br, std::vector<ChildRef>* out) const;

  /// Serialized byte size with the given ELS policy.
  size_t SerializedSize(bool els_in_page) const;

  void Serialize(uint8_t* page, size_t page_size, bool els_in_page,
                 size_t els_code_bytes) const;
  /// `dim`, when nonzero, bounds every kd split dimension: a corrupt page
  /// whose split_dim is out of range is rejected here instead of causing
  /// out-of-bounds Box access in CollectChildren / the search walks.
  static Result<IndexNode> Deserialize(const uint8_t* page, size_t page_size,
                                       bool els_in_page,
                                       size_t els_code_bytes,
                                       uint32_t dim = 0);

  /// ELS sidecar support (ElsMode::kInMemory): extract / attach the leaf
  /// codes in deterministic left-to-right leaf order.
  std::vector<uint8_t> ExtractElsBlob(size_t els_code_bytes) const;
  void AttachElsBlob(const std::vector<uint8_t>& blob, size_t els_code_bytes);
};

/// One internal kd node of a FlatIndexNode. Internal nodes are stored in
/// preorder and leaves in left-to-right order, so a subtree covers a
/// contiguous leaf range [begin, end) whose left part is [begin, mid). A
/// side with one leaf is that leaf. Otherwise the left child is the next
/// internal node, and the right child sits (mid - begin) internal nodes
/// after this one: a subtree with L leaves holds L - 1 internal nodes.
struct FlatKdNode {
  uint32_t split_dim = 0;
  float lsp = 0.0f;
  float rsp = 0.0f;
  uint32_t begin = 0;
  uint32_t mid = 0;
  uint32_t end = 0;
};

/// The read paths' immutable, pointer-free form of an index page, built
/// once when the page enters the tree's read cache: the child page ids in
/// leaf order, their live boxes (§3.4: the decoded ELS box, or the kd
/// region with ELS off) stored dimension-major for the batch MINDIST and
/// overlap kernels, and the intra-node kd tree (§3.1) as a preorder array.
/// Writes keep using IndexNode; a rewritten page is re-flattened on its
/// next read.
class FlatIndexNode {
 public:
  /// Flattens `node`. Leaf kd regions start from the unit cube; `codec`,
  /// when non-null, decodes each leaf's ELS code against its region,
  /// otherwise the region itself is the live box.
  FlatIndexNode(const IndexNode& node, uint32_t dim, const ElsCodec* codec);

  size_t num_children() const { return children_.size(); }
  PageId child(size_t i) const { return children_[i]; }
  /// The children's live boxes, in leaf order.
  BoxSetView live_boxes() const {
    return BoxSetView{bounds_.data(), bounds_.data() + dim_ * stride_, dim_,
                      stride_, children_.size()};
  }
  std::span<const FlatKdNode> kd_nodes() const { return kd_; }

  /// The intra-node box search (§3.1): walks the kd array from the root,
  /// entering a side only when the query's 1-d interval reaches it
  /// (left when query.lo(d) <= lsp, right when query.hi(d) >= rsp), and
  /// sets bit i of `reached` (ceil(n / 64) words, cleared first) for each
  /// leaf i it arrives at.
  void RouteBox(const Box& query, uint64_t* reached) const;

 private:
  /// Appends `n`'s subtree: leaves left to right (child id and live box),
  /// internal nodes in preorder with their leaf ranges. `region` is n's
  /// kd region.
  void Flatten(const KdNode& n, const Box& region, const ElsCodec* codec);

  uint32_t dim_;
  size_t stride_;  // children rounded up to kernels::kBoxLanes
  std::vector<PageId> children_;
  /// lo block then hi block, each dim_ * stride_ floats. Padding lanes
  /// stay 0: the kernels read them, nothing reports them.
  std::vector<float> bounds_;
  std::vector<FlatKdNode> kd_;
};

/// Peeks at the node kind byte of a serialized page.
enum class NodeKind : uint8_t { kData = 1, kIndex = 2, kMeta = 3 };
NodeKind PeekNodeKind(const uint8_t* page);

}  // namespace ht

// Copyright 2026 The HybridTree Authors.

#include "core/validator.h"

#include <cmath>
#include <functional>
#include <string>

#include "common/macros.h"
#include "core/hybrid_tree.h"
#include "core/node.h"

namespace ht {

namespace {

std::string PageTag(PageId page) { return "page " + std::to_string(page); }

}  // namespace

TreeValidator::TreeValidator(HybridTree* tree, ValidateOptions opts)
    : tree_(tree), opts_(opts) {}

Status TreeValidator::Validate() {
  // Validation reads the tree through the mutating node readers (exact
  // on-disk view, no read-path cache fills), so it runs under the
  // exclusive role. The role is annotation-only: re-acquiring it here
  // under a mutator's DebugValidate is a runtime no-op.
  ExclusiveRole role(&tree_->rw_contract_);
  if (opts_.pins) {
    // A validation pass runs between operations; any pin held here was
    // leaked by whatever ran before us (AssertNoPins attributes it to the
    // Fetch call site when pin tracking is on).
    HT_RETURN_NOT_OK(tree_->pool_->AssertNoPins());
  }

  visited_.clear();
  data_pages_.clear();
  visited_.insert(tree_->root_);
  const Box cube = Box::UnitCube(tree_->options_.dim);
  Subtree root;
  HT_RETURN_NOT_OK(ValidateRec(tree_->root_, cube, cube, tree_->height_,
                               /*is_root=*/true, &root));
  if (opts_.occupancy && root.entries != tree_->count_) {
    return Status::Corruption(
        "entry count mismatch: tree says " + std::to_string(tree_->count_) +
        ", traversal found " + std::to_string(root.entries));
  }
  if (opts_.quant) {
    // Per-page content matching happened during the walk; what remains is
    // the reverse direction — a sidecar cached for a page that is no
    // longer a data page of this tree is stale (a missed invalidation).
    for (PageId id : tree_->quant_store_.Snapshot()) {
      if (!data_pages_.contains(id)) {
        return Status::Corruption("page " + std::to_string(id) +
                                  ": quantized sidecar cached for a page "
                                  "that is not a live data page");
      }
    }
  }
  if (opts_.els) {
    // The same for ELS blobs: one kept for a freed page, or for a page
    // rewritten as a data page, was never dropped.
    for (const auto& [id, blob] : tree_->els_sidecar_) {
      if (!visited_.contains(id) || data_pages_.contains(id)) {
        return Status::Corruption(PageTag(id) +
                                  ": ELS blob kept for a page that is not a "
                                  "live index page");
      }
    }
  }

  if (opts_.pins) {
    // Every page the walk touched must have been unpinned again — the
    // validator itself must not leak.
    HT_RETURN_NOT_OK(tree_->pool_->AssertNoPins());
  }
  return Status::OK();
}

Status TreeValidator::ValidateRec(PageId page, const Box& kd_br,
                                  const Box& live, uint32_t expected_level,
                                  bool is_root, Subtree* out) {
  HT_ASSIGN_OR_RETURN(NodeKind kind, tree_->PeekKind(page));
  switch (kind) {
    case NodeKind::kData:
      if (expected_level != 0) {
        return Status::Corruption(PageTag(page) + ": data node at level " +
                                  std::to_string(expected_level));
      }
      return ValidateDataNode(page, kd_br, live, is_root, out);
    case NodeKind::kIndex:
      if (expected_level == 0) {
        return Status::Corruption(PageTag(page) + ": index node at level 0");
      }
      return ValidateIndexNode(page, kd_br, live, expected_level, out);
    case NodeKind::kMeta:
      return Status::Corruption(PageTag(page) + ": meta page inside the tree");
  }
  return Status::Corruption(PageTag(page) + ": unknown node kind");
}

Status TreeValidator::ValidateDataNode(PageId page, const Box& kd_br,
                                       const Box& live, bool is_root,
                                       Subtree* out) {
  HT_ASSIGN_OR_RETURN(DataNode node, tree_->ReadDataNode(page));
  if (opts_.occupancy) {
    if (node.entries.size() > tree_->data_capacity_) {
      return Status::Corruption(
          PageTag(page) + ": data node over capacity (" +
          std::to_string(node.entries.size()) + " > " +
          std::to_string(tree_->data_capacity_) + ")");
    }
    if (!is_root && node.entries.size() < tree_->data_min_count_) {
      return Status::Corruption(
          PageTag(page) + ": data node under utilization floor (" +
          std::to_string(node.entries.size()) + " < " +
          std::to_string(tree_->data_min_count_) + ")");
    }
  }
  const uint32_t dim = tree_->options_.dim;
  for (const auto& e : node.entries) {
    if (e.vec.size() != dim) {
      return Status::Corruption(PageTag(page) + ": entry " +
                                std::to_string(e.id) +
                                " has wrong dimensionality");
    }
    for (float v : e.vec) {
      if (!std::isfinite(v)) {
        return Status::Corruption(PageTag(page) + ": entry " +
                                  std::to_string(e.id) +
                                  " has a non-finite coordinate");
      }
    }
    if (opts_.structure && !kd_br.ContainsPoint(e.vec)) {
      return Status::Corruption(
          PageTag(page) + ": entry " + std::to_string(e.id) +
          " outside its kd region " + kd_br.ToString() + " at " +
          Box::FromPoint(e.vec).ToString());
    }
    if (opts_.els && !live.ContainsPoint(e.vec)) {
      return Status::Corruption(
          PageTag(page) + ": entry " + std::to_string(e.id) +
          " outside its live region " + live.ToString() + " at " +
          Box::FromPoint(e.vec).ToString());
    }
  }
  out->exact_live = node.ComputeLiveBr(dim);
  out->entries = node.entries.size();
  data_pages_.insert(page);
  if (opts_.quant) {
    if (auto qp = tree_->quant_store_.Lookup(page)) {
      // A cached sidecar must be exactly what rebuilding from the current
      // page image would produce — grid, codes, and padding bytes. A
      // mismatch means a write path skipped invalidation, which would
      // silently break the filter's soundness on the next scan.
      HT_ASSIGN_OR_RETURN(PageHandle h, tree_->pool_->Fetch(page));
      DataPageScan scan(h.data(), h.size(), dim);
      if (!scan.ok()) {
        return Status::Corruption(PageTag(page) +
                                  ": unscannable data page with a sidecar");
      }
      if (!qp->Matches(scan.block(), scan.stride_floats(), scan.count(),
                       dim)) {
        return Status::Corruption(
            PageTag(page) +
            ": quantized sidecar does not match page contents (stale)");
      }
    }
  }
  return Status::OK();
}

Status TreeValidator::ValidateIndexNode(PageId page, const Box& kd_br,
                                        const Box& live,
                                        uint32_t expected_level,
                                        Subtree* out) {
  HT_ASSIGN_OR_RETURN(IndexNode node, tree_->ReadIndexNode(page));
  if (opts_.structure) {
    if (node.level != expected_level) {
      return Status::Corruption(
          PageTag(page) + ": index node level " + std::to_string(node.level) +
          ", expected " + std::to_string(expected_level));
    }
    if (node.SerializedSize(tree_->els_in_page()) > tree_->options_.page_size) {
      return Status::Corruption(PageTag(page) + ": index node over page size");
    }
    if (node.NumChildren() < 1) {
      return Status::Corruption(PageTag(page) + ": index node without children");
    }
  }
  if (opts_.els && tree_->options_.els_mode == ElsMode::kInMemory &&
      tree_->els_enabled()) {
    auto it = tree_->els_sidecar_.find(page);
    if (it != tree_->els_sidecar_.end() &&
        it->second.size() != node.NumChildren() * tree_->codec_.CodeBytes()) {
      return Status::Corruption(
          PageTag(page) + ": ELS sidecar blob size " +
          std::to_string(it->second.size()) + " != " +
          std::to_string(node.NumChildren()) + " children * " +
          std::to_string(tree_->codec_.CodeBytes()) + " code bytes");
    }
  }

  // One recursive walk of the intra-node kd-tree. `nbr` is the node-LOCAL
  // region (descends from the unit cube, not from kd_br): ELS codes are
  // encoded relative to local leaf regions, while the data below must lie
  // in the intersection of every ancestor's constraints — so both are
  // threaded separately.
  out->exact_live = Box::Empty(tree_->options_.dim);
  out->entries = 0;
  return ValidateKd(node.root.get(), Box::UnitCube(tree_->options_.dim), page,
                    kd_br, live, expected_level, out);
}

Status TreeValidator::ValidateKd(const KdNode* n, const Box& nbr, PageId page,
                                 const Box& kd_br, const Box& live,
                                 uint32_t expected_level, Subtree* out) {
  const size_t code_bytes = tree_->codec_.CodeBytes();
  if ((n->left == nullptr) != (n->right == nullptr)) {
    return Status::Corruption(PageTag(page) +
                              ": kd node with exactly one child");
  }
  if (n->IsLeaf()) {
    HT_RETURN_NOT_OK(ClaimChildPage(page, n->child));
    if (opts_.els && tree_->els_enabled() && !n->els.empty() &&
        n->els.size() != code_bytes) {
      return Status::Corruption(
          PageTag(page) + ": ELS code of " + std::to_string(n->els.size()) +
          " bytes, expected " + std::to_string(code_bytes));
    }
    const bool decode = tree_->els_enabled();
    const Box dec = decode ? tree_->codec_.Decode(n->els, nbr) : nbr;
    const Box child_kd = kd_br.Intersection(nbr);
    const Box child_live = live.Intersection(dec);
    Subtree child;
    HT_RETURN_NOT_OK(ValidateRec(n->child, child_kd, child_live,
                                 expected_level - 1, /*is_root=*/false,
                                 &child));
    if (opts_.els && decode && child.entries > 0) {
      // The decoded code must cover the exact live box of everything
      // stored below (conservativeness of the stored code)...
      if (!dec.ContainsBox(child.exact_live)) {
        return Status::Corruption(
            PageTag(page) + ": decoded ELS box " + dec.ToString() +
            " does not contain the subtree's exact live box " +
            child.exact_live.ToString());
      }
      // ...and re-encoding that box must round-trip conservatively (the
      // codec contract, checked against live data instead of synthetic
      // boxes).
      const Box clipped = child.exact_live.Intersection(nbr);
      const Box redec =
          tree_->codec_.Decode(tree_->codec_.Encode(child.exact_live, nbr),
                               nbr);
      if (!clipped.IsEmpty() && !redec.ContainsBox(clipped)) {
        return Status::Corruption(
            PageTag(page) + ": ELS round-trip lost space: " +
            redec.ToString() + " does not contain " + clipped.ToString());
      }
    }
    out->exact_live.ExtendToInclude(child.exact_live);
    out->entries += child.entries;
    return Status::OK();
  }
  if (opts_.structure) {
    const uint32_t d = n->split_dim;
    if (d >= tree_->options_.dim) {
      return Status::Corruption(PageTag(page) + ": kd split dim " +
                                std::to_string(d) + " out of range");
    }
    if (n->lsp < nbr.lo(d) || n->rsp > nbr.hi(d)) {
      return Status::Corruption(
          PageTag(page) + ": kd split positions (lsp=" +
          std::to_string(n->lsp) + ", rsp=" + std::to_string(n->rsp) +
          ") outside region " + nbr.ToString() + " on dim " +
          std::to_string(d));
    }
  }
  HT_RETURN_NOT_OK(ValidateKd(n->left.get(), KdLeftBr(nbr, *n), page, kd_br,
                              live, expected_level, out));
  return ValidateKd(n->right.get(), KdRightBr(nbr, *n), page, kd_br, live,
                    expected_level, out);
}

Status TreeValidator::ClaimChildPage(PageId parent, PageId child) {
  if (!opts_.structure) {
    visited_.insert(child);
    return Status::OK();
  }
  if (child == kInvalidPageId) {
    return Status::Corruption(PageTag(parent) + ": kd leaf with invalid child");
  }
  if (child == tree_->meta_page_) {
    return Status::Corruption(PageTag(parent) +
                              ": kd leaf points at the meta page");
  }
  if (child >= tree_->file_->page_count()) {
    return Status::Corruption(PageTag(parent) + ": kd leaf child " +
                              std::to_string(child) + " beyond file end (" +
                              std::to_string(tree_->file_->page_count()) +
                              " pages)");
  }
  if (!visited_.insert(child).second) {
    return Status::Corruption(PageTag(parent) + ": child " +
                              std::to_string(child) +
                              " referenced more than once (cycle or shared "
                              "subtree)");
  }
  return Status::OK();
}

}  // namespace ht

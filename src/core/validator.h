// Copyright 2026 The HybridTree Authors.
// Deep structural validator for the hybrid tree.
//
// TreeValidator walks the whole tree once and checks every invariant the
// structure promises, strictly stronger than the containment checks the
// old HybridTree::CheckInvariants performed (which now delegates here):
//
//   * Structure: node kinds are valid, index-node levels decrease by one
//     toward the data level, every kd internal node has both children,
//     split dimensions are in range, lsp/rsp lie inside the node-local kd
//     region, serialized sizes fit the page, and every child PageId is
//     valid, distinct tree-wide, and never the meta page (a cycle or a
//     shared subtree is reported as corruption, not walked twice).
//   * ELS: every code has exactly CodeBytes() bytes (or is empty); the
//     decoded box of each child contains the child subtree's *exact* live
//     box, computed bottom-up from the stored vectors during the same DFS
//     (not just the per-point containment the old check did); and the
//     codec round-trip contract Decode(Encode(live, ref), ref) ⊇ live∩ref
//     holds for the real live boxes in the tree. In kInMemory mode the
//     sidecar blob sizes are checked against the node fanout.
//   * Occupancy: data nodes respect capacity and (non-root) the
//     utilization floor; entry vectors have the right dimensionality and
//     finite coordinates; the traversal's entry count matches size().
//   * Pins: with ValidateOptions::pins set, the buffer pool must report
//     zero pinned frames both before and after the walk
//     (BufferPool::AssertNoPins), attributing any leak to the Fetch call
//     site when pin tracking is on.
//
// Under -DHT_DEBUG_VALIDATE=ON builds, HybridTree runs a full pass after
// every mutating operation (Insert / Delete / RebuildEls / Flush), so
// property and soak tests validate continuously instead of only at the
// end.

#pragma once

#include <cstdint>
#include <unordered_set>

#include "common/status.h"
#include "core/hybrid_tree.h"
#include "geometry/box.h"
#include "storage/page.h"

namespace ht {

/// Selects which check groups a validation pass runs. Everything defaults
/// to on; tests disable groups to pinpoint a specific failure.
struct ValidateOptions {
  bool structure = true;  ///< kinds, levels, kd splits, sizes, child ids
  bool els = true;        ///< code sizes, decoded ⊇ exact live, round-trip,
                          ///< no ELS blob outlives its index page
  bool occupancy = true;  ///< capacity, utilization floor, entry counts
  bool pins = true;       ///< buffer pool reports no pinned frames
  bool quant = true;      ///< quantized sidecars match page contents, no
                          ///< sidecar outlives its data page
};

/// One-shot deep validation pass over a HybridTree. Stateless between
/// calls: construct, Validate(), discard (or reuse; each Validate() call
/// resets the traversal state).
class TreeValidator {
 public:
  explicit TreeValidator(HybridTree* tree, ValidateOptions opts = {});

  /// Runs the pass. Returns OK or the first Corruption/Internal found.
  /// Acquires the tree's exclusive role itself (validation reads via the
  /// mutating node readers), so callers — tests or DebugValidate — just
  /// call it; the role is an annotation-only capability, never a lock.
  Status Validate();

 private:
  /// Everything the parent needs to know about a validated subtree.
  struct Subtree {
    Box exact_live;     // tight box of every stored vector below
    uint64_t entries = 0;
  };

  Status ValidateRec(PageId page, const Box& kd_br, const Box& live,
                     uint32_t expected_level, bool is_root, Subtree* out)
      HT_REQUIRES(tree_->rw_contract_);
  Status ValidateDataNode(PageId page, const Box& kd_br, const Box& live,
                          bool is_root, Subtree* out)
      HT_REQUIRES(tree_->rw_contract_);
  Status ValidateIndexNode(PageId page, const Box& kd_br, const Box& live,
                           uint32_t expected_level, Subtree* out)
      HT_REQUIRES(tree_->rw_contract_);
  /// Recursive intra-node kd walk of ValidateIndexNode (member, not a
  /// lambda, so the analysis sees the role requirement).
  Status ValidateKd(const KdNode* n, const Box& nbr, PageId page,
                    const Box& kd_br, const Box& live, uint32_t expected_level,
                    Subtree* out) HT_REQUIRES(tree_->rw_contract_);
  /// Registers a child page id: in range, not the meta page, first visit.
  Status ClaimChildPage(PageId parent, PageId child);

  HybridTree* tree_;
  ValidateOptions opts_;
  /// Every page reached by the current walk (ELS check: every kept blob
  /// must belong to one of these that is not a data page).
  std::unordered_set<PageId> visited_;
  /// Data pages seen by the current walk (quant check: every cached
  /// sidecar must belong to one of these).
  std::unordered_set<PageId> data_pages_;
};

}  // namespace ht

// Copyright 2026 The HybridTree Authors.
// The hybrid tree (Chakrabarti & Mehrotra, ICDE 1999): a paginated
// multidimensional index for high-dimensional feature spaces that combines
// space-partitioning (1-d kd-splits per node, fanout independent of
// dimensionality, fast intra-node search) with data-partitioning
// relaxations (splits may overlap instead of cascading, preserving the
// utilization guarantee).
//
// Usage:
//   MemPagedFile file;                        // or DiskPagedFile
//   HybridTreeOptions opts; opts.dim = 64;
//   auto tree = HybridTree::Create(opts, &file).ValueOrDie();
//   tree->Insert(vec, id);
//   auto hits = tree->SearchBox(query_box);
//   auto nn = tree->SearchKnn(center, 10, L1Metric());
//
// The tree is fully dynamic (inserts/deletes interleave with queries) and
// supports point, box, distance-range and k-NN queries under arbitrary
// user-supplied distance metrics (§3.5).
//
// Concurrency: shared-read / exclusive-write. All query methods (SearchBox,
// SearchPoint, CountBox, ScanAll, SearchRange, SearchKnn[Approx], cursors)
// are const and keep their traversal state in per-query stack/heap
// structures, so any number of threads may run them concurrently against
// one tree: the buffer pool is thread-safe (storage/buffer_pool.h), and
// the flat-node and sidecar caches are lock-free (storage/page_table.h).
// Mutation (Insert, Delete, Flush, RebuildEls) requires exclusive access:
// the caller must guarantee no query is in flight — the exclusive-write
// half of the protocol is enforced by the caller (e.g. the read-only
// ShardedIndex in serve/), not by this class. The protocol is expressed to
// Clang's thread-safety analysis through the annotation-only rw_contract_
// capability (see DESIGN.md §12): read entry points acquire it shared,
// mutators exclusively, and internal helpers declare which half they
// need.

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/els.h"
#include "core/node.h"
#include "core/options.h"
#include "core/search_scratch.h"
#include "core/stats.h"
#include "geometry/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page_table.h"
#include "storage/paged_file.h"
#include "storage/quant_store.h"

namespace ht {

class Dataset;
struct BulkLoadOptions;
class HybridTree;

/// Bottom-up bulk construction (see core/bulk_load.h).
Result<std::unique_ptr<HybridTree>> BulkLoad(const HybridTreeOptions& options,
                                             PagedFile* file,
                                             const Dataset& data,
                                             const BulkLoadOptions& bulk);

/// Approximation knobs for bounded k-NN search. Default-constructed limits
/// are exact and unlimited — with them, SearchKnnBoundedInto runs the same
/// code path as SearchKnnInto bit-for-bit (every knob check compiles to a
/// comparison that can never fire).
struct KnnSearchLimits {
  /// (1+epsilon)-approximate: the traversal stops once the best frontier
  /// MINDIST exceeds bound/(1+epsilon), so every reported distance is
  /// within a (1+epsilon) factor of the true k-th distance. 0 = exact.
  double epsilon = 0.0;
  /// Data-page (leaf) visit budget: the search stops after scanning this
  /// many leaves, returning the best candidates found so far. 0 = no
  /// budget. The budget bounds work, not quality — recall degrades
  /// gracefully because best-first order visits the most promising leaves
  /// first.
  size_t max_leaf_visits = 0;
};

/// Per-query accounting filled by the bounded k-NN search.
struct KnnSearchInfo {
  /// Data pages visited by this query: scanned, or ruled out from their
  /// sidecar without a fetch.
  uint64_t leaf_visits = 0;
  /// True when an approximation knob cut the traversal short of exact: the
  /// visit budget ran out, or the epsilon rule stopped (or skipped a
  /// subtree) while the exact search would still have visited it. Always
  /// false for default limits.
  bool early_terminated = false;
};

/// Knobs for an incremental KnnCursor (see HybridTree::OpenKnnCursor).
/// Default-constructed options reproduce the unbounded exact cursor
/// bit-for-bit.
struct KnnCursorOptions {
  /// Declared result bound: the consumer promises to use only entries up
  /// to the `limit`-th smallest distance of the full stream. The cursor
  /// then maintains a running k-th-distance bound over every entry it has
  /// enqueued and uses it to (a) drive the quantized filter-then-refine
  /// page scan and (b) prune subtrees that provably cannot contribute.
  /// Entries at distance <= that bound are still yielded in exact
  /// ascending order (ties at the bound included — the stream may exceed
  /// `limit` entries, it never misses one at or under the bound). 0 = no
  /// declared bound: pure streaming, no filtering.
  size_t limit = 0;
  /// (1+epsilon)-approximate streaming (needs limit > 0 to have a bound to
  /// compare against): subtrees whose MINDIST * (1+epsilon) exceeds the
  /// running self-bound are skipped. 0 = exact.
  double epsilon = 0.0;
  /// Leaf-visit budget, as in KnnSearchLimits. Once exhausted the cursor
  /// yields the already-materialized entries and drops every pending
  /// subtree. 0 = no budget.
  size_t max_leaf_visits = 0;
  /// Optional external radius that only ever tightens (monotonically
  /// non-increasing), e.g. the serving layer's shared cross-shard k-th
  /// distance. Read with memory_order_relaxed: it is a monotone pruning
  /// hint with no associated data — a stale (too large) value only weakens
  /// pruning, never correctness. Used for entry-level filtering always,
  /// and for subtree pruning only in fully exact mode (epsilon == 0 and no
  /// budget), so that budgeted traversals stay deterministic regardless of
  /// cross-shard timing. Not owned; must outlive the cursor.
  const std::atomic<double>* shared_bound = nullptr;
};

class HybridTree {
 public:
  /// Creates an empty tree in `file` (which must be fresh). The tree keeps
  /// a reference to `file`; the caller owns it and must keep it alive.
  static Result<std::unique_ptr<HybridTree>> Create(
      const HybridTreeOptions& options, PagedFile* file);

  /// Opens a tree previously persisted via Flush(). Options are read back
  /// from the metadata page; `buffer_pool_pages` overrides the pool
  /// capacity (0 = unbounded, the persisted default — runtime knobs are
  /// not stored in the metadata page). With ElsMode::kInMemory the ELS
  /// sidecar is rebuilt by one DFS over the tree (codes are exact after
  /// the rebuild).
  static Result<std::unique_ptr<HybridTree>> Open(
      PagedFile* file, size_t buffer_pool_pages = 0);

  /// Inserts a point (coordinates must lie in the normalized feature space
  /// [0,1]^dim). Duplicate (point, id) pairs are allowed.
  Status Insert(std::span<const float> point, uint64_t id);

  /// Inserts ids.size() points in one pass. `points` is row-major:
  /// points.size() == ids.size() * dim(), row i holding the coordinates
  /// of ids[i]. The whole batch is validated before any mutation (the
  /// write-side validate-before-I/O contract). The descent groups points
  /// by target leaf at every level, so each visited node is deserialized
  /// and re-serialized once per GROUP instead of once per point, all
  /// dirtied pages form one dirty set for the next batched flush, and
  /// under HT_DEBUG_VALIDATE the validator runs once per batch instead of
  /// once per point. The stored set — and therefore every query result —
  /// is identical to an equivalent loop of Insert() calls; the internal
  /// split structure may differ (points are placed in group order).
  /// Mutation: requires the exclusive-write half of the protocol, exactly
  /// like Insert.
  Status InsertBatch(std::span<const float> points,
                     std::span<const uint64_t> ids);

  /// Deletes one entry matching (point, id) exactly; NotFound if absent.
  /// Underflowing nodes are eliminated and their entries reinserted (§3.5).
  Status Delete(std::span<const float> point, uint64_t id);

  /// All ids whose vectors lie inside `query` (closed box).
  Result<std::vector<uint64_t>> SearchBox(const Box& query) const;

  // --- zero-allocation query variants --------------------------------------
  // The *Into overloads are the steady-state hot path: `out` is cleared and
  // filled (capacity reused), and `scratch` — which may be nullptr, at the
  // cost of per-query allocation — holds every traversal buffer. Reusing
  // both across queries makes the search loop allocation-free after one
  // warm-up query (see core/search_scratch.h for the ownership rules).
  // Results are identical to the value-returning APIs, which are thin
  // wrappers over these.

  /// SearchBox into a caller-owned buffer.
  Status SearchBoxInto(const Box& query, SearchScratch* scratch,
                       std::vector<uint64_t>* out) const;

  /// SearchRange into a caller-owned buffer.
  Status SearchRangeInto(std::span<const float> center, double radius,
                         const DistanceMetric& metric, SearchScratch* scratch,
                         std::vector<uint64_t>* out) const;

  /// SearchKnn into a caller-owned buffer ((distance, id), ascending).
  Status SearchKnnInto(std::span<const float> center, size_t k,
                       const DistanceMetric& metric, SearchScratch* scratch,
                       std::vector<std::pair<double, uint64_t>>* out) const;

  /// Bounded/approximate k-NN into a caller-owned buffer: epsilon and the
  /// leaf-visit budget per `limits` (see KnnSearchLimits — default limits
  /// make this bit-identical to SearchKnnInto). `info`, when non-null,
  /// receives visit/termination accounting. This is the primitive the
  /// value-returning and *Into k-NN entry points wrap.
  Status SearchKnnBoundedInto(
      std::span<const float> center, size_t k, const DistanceMetric& metric,
      const KnnSearchLimits& limits, SearchScratch* scratch,
      std::vector<std::pair<double, uint64_t>>* out,
      KnnSearchInfo* info = nullptr) const;

  /// All ids stored at exactly `point` (point query; §3.5 lists point
  /// queries among the supported feature-based queries).
  Result<std::vector<uint64_t>> SearchPoint(
      std::span<const float> point) const;

  /// Number of objects inside `query` without materializing the id list.
  Result<uint64_t> CountBox(const Box& query) const;

  /// Visits every stored (id, vector) pair (unspecified order). Used for
  /// exports and integrity audits; reads each page exactly once.
  Status ScanAll(const std::function<void(uint64_t, std::span<const float>)>&
                     visit) const;

  /// All ids within `radius` of `center` under `metric`.
  Result<std::vector<uint64_t>> SearchRange(
      std::span<const float> center, double radius,
      const DistanceMetric& metric) const;

  /// The k nearest neighbors of `center` as (distance, id), ascending.
  /// Best-first branch-and-bound (Hjaltason–Samet) over live regions.
  Result<std::vector<std::pair<double, uint64_t>>> SearchKnn(
      std::span<const float> center, size_t k,
      const DistanceMetric& metric) const;

  /// (1+epsilon)-approximate k-NN (the paper's future-work item): subtrees
  /// are pruned when MINDIST * (1 + epsilon) exceeds the current k-th
  /// candidate, so every reported distance is within a (1+epsilon) factor
  /// of the true k-th nearest distance. epsilon = 0 is exact.
  Result<std::vector<std::pair<double, uint64_t>>> SearchKnnApprox(
      std::span<const float> center, size_t k, const DistanceMetric& metric,
      double epsilon) const;

  /// Incremental nearest-neighbor cursor ("distance browsing"): yields
  /// entries strictly in ascending distance order, fetching pages lazily —
  /// ideal when the consumer stops after an unknown number of results
  /// (e.g., filtering by a predicate). The cursor holds no page pins; the
  /// tree must not be mutated while a cursor is live, and `metric` must
  /// outlive the cursor. With KnnCursorOptions the cursor carries a
  /// running k-th-distance bound (its own stream, optionally tightened by
  /// an external shared radius) that reaches the quantized
  /// filter-then-refine page scan — byte-identical results for any
  /// consumer honoring the declared limit. A cursor is single-threaded:
  /// one cursor is driven by one consumer, so its fields need no guards;
  /// the only cross-thread state it touches is the shared_bound atomic.
  class KnnCursor {
   public:
    /// The next nearest (distance, id), or nullopt when exhausted.
    Result<std::optional<std::pair<double, uint64_t>>> Next();

    /// Data pages visited so far (approximation accounting), as in
    /// KnnSearchInfo::leaf_visits.
    uint64_t leaf_visits() const { return leaf_visits_; }
    /// True when an approximation knob (epsilon / visit budget) skipped
    /// work the exact traversal would have done. Always false for
    /// default-constructed options.
    bool early_terminated() const { return early_terminated_; }

   private:
    friend class HybridTree;
    struct Item {
      double dist;
      bool is_entry;
      uint64_t id;      // valid when is_entry
      PageId page;      // valid when !is_entry
      bool operator>(const Item& o) const { return dist > o.dist; }
    };
    KnnCursor(const HybridTree* tree, std::span<const float> center,
              const DistanceMetric* metric, const KnnCursorOptions& opts);

    /// k-th smallest entry distance enqueued so far (+inf until `limit`
    /// entries have been seen, or always with no declared limit).
    double SelfBound() const;
    /// Entry-filtering bound: SelfBound tightened by the shared radius.
    double ScanBound() const;
    /// Subtree-pruning bound: ScanBound in fully exact mode, SelfBound
    /// only when a knob is active (keeps budgeted traversals independent
    /// of cross-shard timing — see KnnCursorOptions::shared_bound).
    double ExpandBound() const;
    /// Feeds one enqueued entry distance into the self-bound heap.
    void RecordEntry(double d);

    const HybridTree* tree_;
    std::vector<float> center_;
    const DistanceMetric* metric_;
    KnnCursorOptions opts_;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue_;
    std::vector<double> best_;  // max-heap: `limit` best distances
    SearchScratch scratch_;     // page-scan, filter and MINDIST buffers
    uint64_t leaf_visits_ = 0;
    bool early_terminated_ = false;
  };
  KnnCursor OpenKnnCursor(std::span<const float> center,
                          const DistanceMetric& metric) const;
  /// Cursor with a declared result bound and approximation knobs (see
  /// KnnCursorOptions). Default options == the overload above.
  KnnCursor OpenKnnCursor(std::span<const float> center,
                          const DistanceMetric& metric,
                          const KnnCursorOptions& opts) const;

  /// Writes all dirty pages + metadata to the backing file.
  Status Flush();

  uint64_t size() const { return count_; }
  uint32_t height() const { return height_; }
  const HybridTreeOptions& options() const { return options_; }
  PageId root_page() const { return root_; }

  /// Buffer pool, exposed for access accounting by the harness
  /// (pool().stats().PagesVisited() is "disk accesses").
  BufferPool& pool() { return *pool_; }
  const BufferPool& pool() const { return *pool_; }

  /// Sets the frontier-driven prefetch depth (see
  /// HybridTreeOptions::prefetch_depth). Like a mutation, call it only
  /// under write exclusivity (no query in flight); queries read the value
  /// without synchronization.
  void SetPrefetchDepth(size_t depth) { options_.prefetch_depth = depth; }
  size_t prefetch_depth() const { return options_.prefetch_depth; }

  /// Maximum entries per data node at the current configuration.
  size_t data_node_capacity() const { return data_capacity_; }

  /// Number of data pages with a cached quantized sidecar (test support).
  size_t CachedQuantPages() const { return quant_store_.CachedPages(); }

  /// Structural statistics (Table 1 analogue). Traverses the whole tree.
  Result<TreeStats> ComputeStats();

  /// Verifies structural invariants (containment, utilization, ELS
  /// conservativeness, serialized sizes, entry count). Test support.
  Status CheckInvariants();

  /// Debug: prints the tree structure with kd regions and decoded live
  /// boxes (test/diagnostic support).
  void DumpTree();

  /// Recomputes every ELS code exactly from the data below it (one DFS).
  /// Called by Open() in kInMemory mode; also usable to re-tighten codes
  /// grown stale by deletions.
  Status RebuildEls();

 private:
  friend Result<std::unique_ptr<HybridTree>> BulkLoad(
      const HybridTreeOptions& options, PagedFile* file, const Dataset& data,
      const BulkLoadOptions& bulk);
  /// Deep validation (src/core/validator.h) reads private node I/O and
  /// tree metadata; CheckInvariants() delegates to it.
  friend class TreeValidator;

  HybridTree(const HybridTreeOptions& options, PagedFile* file);

  bool els_enabled() const {
    return options_.els_mode != ElsMode::kOff && options_.els_bits > 0;
  }
  bool els_in_page() const {
    return options_.els_mode == ElsMode::kInPage && options_.els_bits > 0;
  }

  // --- node I/O -----------------------------------------------------------
  // The HT_REQUIRES/HT_REQUIRES_SHARED(rw_contract_) annotations below make
  // the shared-read / exclusive-write protocol (file comment) checkable:
  // write-path helpers demand the exclusive role, read-path helpers the
  // shared role, and a const search that strays onto a write helper fails
  // the thread-safety build. Public entry points acquire the role
  // internally (SharedRole/ExclusiveRole guards), so the contract is not
  // viral to callers; the Role itself compiles to nothing.
  Result<DataNode> ReadDataNode(PageId id) HT_REQUIRES(rw_contract_);
  Status WriteDataNode(PageId id, const DataNode& node)
      HT_REQUIRES(rw_contract_);
  Result<IndexNode> ReadIndexNode(PageId id) HT_REQUIRES(rw_contract_);
  /// Read-path variant: returns the page's flat view (core/node.h
  /// FlatIndexNode: child ids, dimension-major live boxes, preorder kd
  /// array) from the in-memory cache, deserializing and flattening
  /// `page_data` on a miss. Does NOT fetch from the pool — the caller
  /// already did (and paid the logical read). Mutating paths must not use
  /// this. Lock-free and safe to call from concurrent readers; the node
  /// stays valid while the caller holds the shared role (invalidation
  /// needs the exclusive one).
  Result<const FlatIndexNode*> ReadFlatNode(
      PageId id, const uint8_t* page_data, size_t page_size) const
      HT_REQUIRES_SHARED(rw_contract_);
  /// Drops `id` from the flat-node cache (write paths, before rewriting
  /// or freeing the page).
  void InvalidateCachedNode(PageId id) HT_REQUIRES(rw_contract_);
  Status WriteIndexNode(PageId id, IndexNode& node) HT_REQUIRES(rw_contract_);
  Result<NodeKind> PeekKind(PageId id) HT_REQUIRES(rw_contract_);
  Status WriteMeta() HT_REQUIRES(rw_contract_);

  // --- insertion ----------------------------------------------------------
  struct SplitResult {
    bool split = false;
    uint32_t dim = 0;
    float lsp = 0.0f;
    float rsp = 0.0f;
    PageId right_page = kInvalidPageId;
    Box left_live;
    Box right_live;
  };
  Result<SplitResult> InsertRec(PageId page, const Box& br,
                                std::span<const float> point, uint64_t id)
      HT_REQUIRES(rw_contract_);
  /// Installs a new root above the old one after a root-level split
  /// (shared by Insert and InsertBatch).
  Status GrowRoot(const SplitResult& s) HT_REQUIRES(rw_contract_);
  /// One InsertBatch recursion step: inserts the batch rows indexed by
  /// `idxs` into the subtree at `page`. On a split of `page`, the rows
  /// not yet placed come back in `leftovers` for the caller to re-route
  /// against the updated structure.
  struct BatchOutcome {
    SplitResult split;
    std::vector<uint32_t> leftovers;
  };
  Result<BatchOutcome> InsertBatchRec(PageId page, const Box& br,
                                      std::span<const float> points,
                                      std::span<const uint64_t> ids,
                                      std::vector<uint32_t> idxs)
      HT_REQUIRES(rw_contract_);
  Result<SplitResult> SplitDataNode(PageId page, DataNode& node,
                                    const Box& br) HT_REQUIRES(rw_contract_);
  Result<SplitResult> SplitIndexNode(PageId page, IndexNode& node,
                                     const Box& br) HT_REQUIRES(rw_contract_);
  /// Recursively builds a kd-tree over child subtrees for one side of an
  /// index-node split.
  struct ChildItem {
    PageId page = kInvalidPageId;
    Box kd_br;
    Box live;
  };
  std::unique_ptr<KdNode> BuildKdTree(std::vector<ChildItem> items,
                                      const Box& region);
  /// Navigation that closes kd gaps (lsp < v < rsp) by minimum enlargement,
  /// re-encoding ELS codes of the widened subtree.
  ChildRef FindLeafForInsert(IndexNode& node, std::span<const float> p,
                             const Box& node_br, bool* dirtied)
      HT_REQUIRES(rw_contract_);
  void ReencodeSubtree(KdNode* n, const Box& old_br, const Box& new_br);
  /// Replaces every empty leaf code with the full-region code so that the
  /// invariant "every leaf carries a code" holds before serialization.
  void EnsureCodes(KdNode* n);

  // --- deletion -----------------------------------------------------------
  struct DeleteOutcome {
    bool found = false;
    bool eliminate_me = false;
    std::vector<DataEntry> orphans;
  };
  Result<DeleteOutcome> DeleteRec(PageId page, const Box& br,
                                  std::span<const float> point, uint64_t id)
      HT_REQUIRES(rw_contract_);
  /// Removes `target` (a kd leaf) from the node's kd tree, widening and
  /// re-encoding the sibling subtree. Returns false if target is the root.
  bool RemoveKdLeaf(IndexNode& node, const Box& node_br, KdNode* target);

  // --- search -------------------------------------------------------------
  // Const and re-entrant: all traversal state lives in the per-query
  // scratch and locals, never on the tree object. `contained` marks that
  // an ancestor's live box was fully inside the query, so every point
  // below qualifies without per-point tests (scan-level pruning). Each
  // visited index node is scored with one batch call over its flat view
  // (MINDIST for range and k-NN, the box route plus one overlap pass for
  // box), finished before any child is descended, so the per-node batch
  // buffers need no base markers; only scratch->descents nests. The
  // recursive bodies are members, not lambdas, so the analysis sees the
  // shared-role requirement.
  Status SearchBoxRec(PageId page, const Box& query, bool contained,
                      SearchScratch* scratch, std::vector<uint64_t>* out) const
      HT_REQUIRES_SHARED(rw_contract_);
  /// Box half of the filter-before-fetch rule, run when a descent that is
  /// not `contained` admits `page`: true when the page is not resident,
  /// has a sidecar, and no row's codes lie in the box's code range
  /// (quant::AnyRowMayBeInBox). The page is then counted as skipped and
  /// never fetched. Resident pages keep the exact scan, which stops about
  /// as early as the code test, and the fetch it would save is a
  /// lock-free hit. Never builds a sidecar.
  bool BoxRulesOut(PageId page, const Box& query, SearchScratch* scratch) const
      HT_REQUIRES_SHARED(rw_contract_);
  /// `survivors` is the page's row filter from admission (see
  /// SearchScratch::Descent); empty when the page was not filtered.
  Status SearchRangeRec(PageId page, std::span<const uint32_t> survivors,
                        std::span<const float> center, double radius,
                        const DistanceMetric& metric, SearchScratch* scratch,
                        std::vector<uint64_t>* out) const
      HT_REQUIRES_SHARED(rw_contract_);
  Status ScanAllRec(
      PageId page,
      const std::function<void(uint64_t, std::span<const float>)>& fn,
      SearchScratch* scratch) const HT_REQUIRES_SHARED(rw_contract_);
  /// The prefetch step of the depth-first traversals (box, range,
  /// ScanAll): once a node's admitted children are appended to
  /// scratch->descents from `first` on, in leaf order, they are
  /// prefetched as one batch. The caller then descends them in that order
  /// and truncates back to `first`, so results are byte-identical with
  /// prefetch on or off.
  void PrefetchDescents(size_t first, SearchScratch* scratch) const;
  /// The data-page distance scan every metric traversal shares (range,
  /// batch k-NN, the cursor): QuantFilter unless `survivors` already holds
  /// the page's filter result, then either a sparse per-row exact refine
  /// of the survivors or one bounded batch pass over the page. Calls
  /// emit(distance, id) in ascending row order. A row whose distance
  /// exceeds `bound` may be skipped or reported with any value above
  /// `bound`, so `emit` must only compare against thresholds at or under
  /// it; a row whose distance is NaN is never emitted; every other row
  /// gets its exact distance. A template over the emit callable so the
  /// hot path stays allocation-free.
  template <typename Emit>
  Status ScanDataPage(PageId page, const uint8_t* data, size_t size,
                      std::span<const uint32_t> survivors,
                      std::span<const float> center,
                      const DistanceMetric& metric, double bound,
                      SearchScratch* scratch, const Emit& emit) const
      HT_REQUIRES_SHARED(rw_contract_);
  /// One page visit of the best-first traversals (batch k-NN, the
  /// cursor), filter before fetch: QuantFilter from the page's sidecar
  /// first; a data page with no surviving row is never pinned. Otherwise
  /// runs `before_pin()` (the k-NN frontier prefetch), pins the page and
  /// scans it (ScanDataPage, with the survivors already found). Returns
  /// the flat node of an index page, or nullptr for a data page, scanned
  /// or ruled out; both count as a leaf visit. `bound` is the caller's one
  /// snapshot for this page, used by the filter and the refine alike.
  template <typename Emit, typename BeforePin>
  Result<const FlatIndexNode*> VisitPage(PageId page,
                                         std::span<const float> center,
                                         const DistanceMetric& metric,
                                         double bound, SearchScratch* scratch,
                                         const Emit& emit,
                                         const BeforePin& before_pin) const
      HT_REQUIRES_SHARED(rw_contract_);
  /// Whether metric scans use sidecars at all: they are on, the metric has
  /// a code-space bound (DistanceMetric::SupportsCodeFilter; building
  /// codes it can never filter with would only fill QuantStore), and the
  /// dispatch tier is SIMD (at the scalar tier the code pass costs more
  /// than the early-abandoning exact scan it would save).
  bool SidecarsServe(const DistanceMetric& metric) const;
  /// The sidecar filter of every metric page scan, run at most once per
  /// page visit. Before the pin (`pinned` null) it uses the page's cached
  /// sidecar, if any, and never builds one: a sidecar exists only for a
  /// live data page with exactly those rows (invalidated on every rewrite
  /// and free), so finding one also says the page is a data page. After
  /// the pin it builds the sidecar on first use. When it filters, it
  /// collects the rows whose code lower bound does not exceed `bound`
  /// (ascending) into scratch->survivors, charges the page's scan
  /// counters and returns true; a filter before the pin that leaves no row
  /// also charges a skipped page, and the caller must not fetch it.
  /// Returns false and charges nothing when there is no sidecar to use,
  /// the bound prunes nothing (+inf) or the metric has no mask kernel.
  bool QuantFilter(PageId page, const DataPageScan* pinned,
                   std::span<const float> center, const DistanceMetric& metric,
                   double bound, SearchScratch* scratch) const
      HT_REQUIRES_SHARED(rw_contract_);
  /// Prefetch lookahead of the batch k-NN: true when `page` has a sidecar
  /// and no row survives its code filter at `bound`. The bound only
  /// shrinks, so QuantFilter will rule the page out when it is popped,
  /// and a prefetch batch must leave it out. A prediction for the I/O
  /// schedule: it charges nothing and decides nothing about the visit.
  /// Called from the prefetch lambda, which the thread-safety analysis
  /// sees as a separate function, so it declares no role.
  bool RuledOutAhead(PageId page, std::span<const float> center,
                     const DistanceMetric& metric, double bound,
                     SearchScratch* scratch) const;

  // --- maintenance --------------------------------------------------------
  /// DFS recomputing ELS codes; returns this subtree's exact live box.
  Result<Box> RebuildElsRec(PageId page, const Box& br)
      HT_REQUIRES(rw_contract_);
  /// Kd-walk half of RebuildElsRec: recurses into child subtrees and
  /// re-encodes leaf ELS codes in place (member, not a lambda, so the
  /// analysis sees the exclusive-role requirement).
  Status RebuildElsKd(KdNode* n, const Box& nbr, Box* node_live)
      HT_REQUIRES(rw_contract_);
  Status ComputeStatsRec(PageId page, const Box& br, TreeStats* stats,
                         double* data_util_sum) HT_REQUIRES(rw_contract_);
  /// Kd-walk half of ComputeStatsRec (member, not a lambda, so the
  /// analysis sees the exclusive-role requirement).
  Status ComputeStatsKd(const KdNode* n, const Box& nbr, TreeStats* stats,
                        double* data_util_sum) HT_REQUIRES(rw_contract_);
  Status CollectSubtreeEntries(PageId page, std::vector<DataEntry>* out,
                               std::vector<PageId>* pages)
      HT_REQUIRES(rw_contract_);
  /// Recursive body of DumpTree (member for the same reason as ScanAllRec).
  void DumpTreeRec(PageId page, const Box& br, int depth)
      HT_REQUIRES(rw_contract_);
  /// No-op unless built with -DHT_DEBUG_VALIDATE=ON, in which case it runs
  /// a full TreeValidator pass (including buffer-pool pin accounting) and
  /// aborts on any violation. Called after every mutating operation.
  void DebugValidate();

  HybridTreeOptions options_;
  PagedFile* file_;
  std::unique_ptr<BufferPool> pool_;
  ElsCodec codec_;
  size_t data_capacity_ = 0;
  size_t data_min_count_ = 0;

  PageId meta_page_ = kInvalidPageId;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;  // level of the root (0 = data node)
  uint64_t count_ = 0;

  /// ELS sidecar for ElsMode::kInMemory: page id -> packed leaf codes in
  /// left-to-right leaf order.
  std::unordered_map<PageId, std::vector<uint8_t>> els_sidecar_;

  /// Quantized data-page sidecars for the filter-then-refine scan path
  /// (storage/quant_store.h). Built lazily by const searches; invalidated
  /// wherever a data page is rewritten or freed.
  QuantStore quant_store_;

  /// Insert-path scratch: candidate leaves collected by FindLeafForInsert,
  /// reused across calls (cleared, capacity retained) instead of being
  /// reallocated per visited node. Safe as a member because mutation runs
  /// under the exclusive-write half of the concurrency protocol, and each
  /// use completes before InsertRec recurses into the chosen child.
  std::vector<ChildRef> insert_candidates_;

  /// Flat-view cache for the read paths (searches, cursors): each index
  /// page's FlatIndexNode, with every child live box already decoded.
  /// Readers load it lock-free and the first builder of a page publishes
  /// with a CAS (storage/page_table.h). Entries are deleted only under the
  /// exclusive role, whenever the page is written or freed. Access counts
  /// are unaffected (callers fetch the page first regardless). Mutable
  /// because filling the cache is part of the const read path.
  mutable OwnedPageTable<const FlatIndexNode> node_cache_;

  /// The shared-read / exclusive-write protocol as a checkable capability.
  /// Not a lock: acquiring it is a compile-time statement ("this code runs
  /// under read-sharing" / "under write exclusivity"), enforced externally
  /// by the serving layer's batch barriers. Entry points acquire it via
  /// SharedRole / ExclusiveRole; helpers declare HT_REQUIRES[_SHARED] on
  /// it so a const search can never reach a mutating helper.
  mutable Role rw_contract_;
};

}  // namespace ht

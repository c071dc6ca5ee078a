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
// SearchPoint, CountBox, ScanAll, SearchRange, SearchKnn, cursors)
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

/// Approximation knobs of the k-NN engine, for the batch search and the
/// cursor alike. Default-constructed limits are exact and unlimited — with
/// them, SearchKnnBoundedInto runs the same code path as SearchKnnInto
/// bit-for-bit (every knob check compiles to a comparison that can never
/// fire).
struct KnnSearchLimits {
  /// (1+epsilon)-approximate: subtrees whose MINDIST * (1+epsilon) exceeds
  /// the running k-th distance are skipped, so every reported distance is
  /// within a (1+epsilon) factor of the true k-th distance. 0 = exact.
  /// Must be finite and non-negative.
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

/// Knobs for an incremental KnnCursor (see HybridTree::OpenKnnCursor): the
/// engine's limits (epsilon needs limit > 0 to have a bound to compare
/// against; once the leaf-visit budget is spent the cursor yields the
/// already-materialized entries and drops every pending subtree), plus a
/// declared result bound. Default-constructed options reproduce the
/// unbounded exact cursor bit-for-bit.
struct KnnCursorOptions : KnnSearchLimits {
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
  /// [0,1]^dim). Duplicate (point, id) pairs are allowed. This is
  /// InsertBatch of the one row: there is one insertion path (§3.5).
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
  /// split structure may differ (points are placed in group order). A
  /// one-row batch is exactly Insert.
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
  /// value-returning and *Into k-NN entry points wrap: it drains the first
  /// k entries of a limit-k KnnCursor run on `scratch`.
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

  /// Incremental nearest-neighbor cursor ("distance browsing"), the tree's
  /// one k-NN engine: yields entries in ascending (distance, id) order,
  /// fetching pages lazily — ideal when the consumer stops after an
  /// unknown number of results (e.g., filtering by a predicate). The
  /// cursor holds no page pins; the tree must not be mutated while a
  /// cursor is live, and `metric` must outlive the cursor. With
  /// KnnCursorOptions the cursor carries a running k-th-distance bound
  /// (its own stream, optionally tightened by an external shared radius)
  /// that reaches the quantized filter-then-refine page scan —
  /// byte-identical results for any consumer honoring the declared limit.
  /// A cursor is single-threaded: one cursor is driven by one consumer, so
  /// its fields need no guards; the only cross-thread state it touches is
  /// the shared_bound atomic.
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
    KnnCursor(const HybridTree* tree, std::span<const float> center,
              const DistanceMetric* metric, const KnnCursorOptions& opts,
              SearchScratch* scratch);

    /// k-th smallest entry distance enqueued so far (+inf until `limit`
    /// entries have been seen, or always with no declared limit).
    double SelfBound() const;
    /// Entry-filtering bound: SelfBound tightened by the shared radius.
    double ScanBound() const;
    /// Subtree-pruning bound: ScanBound in fully exact mode, SelfBound
    /// only when a knob is active (keeps budgeted traversals independent
    /// of cross-shard timing — see KnnCursorOptions::shared_bound).
    double ExpandBound() const;
    /// One scanned entry, emitted by a page scan at the page's bound
    /// snapshot `bound`: dropped when it lies beyond `bound` or the
    /// self-bound, otherwise fed into the self-bound heap and enqueued.
    void Offer(double d, uint64_t id, double bound);

    const HybridTree* tree_;
    const DistanceMetric* metric_;
    KnnCursorOptions opts_;
    std::unique_ptr<SearchScratch> owned_;  // set when no scratch is lent
    /// The lent scratch or owned_: the traversal state (frontier, entry
    /// heap, self-bound heap, center) and the page-scan buffers.
    SearchScratch* scratch_;
    uint64_t leaf_visits_ = 0;
    bool early_terminated_ = false;
  };
  /// Cursor with a declared result bound and approximation knobs (see
  /// KnnCursorOptions; default options give the plain exact stream).
  /// `scratch`, when non-null, holds the cursor's whole state: it serves
  /// this cursor alone until the cursor is destroyed, and a warm one makes
  /// the pulls allocation-free. With nullptr the cursor owns a scratch.
  KnnCursor OpenKnnCursor(std::span<const float> center,
                          const DistanceMetric& metric,
                          const KnnCursorOptions& opts = {},
                          SearchScratch* scratch = nullptr) const;

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
  bool els_in_memory() const {
    return options_.els_mode == ElsMode::kInMemory && options_.els_bits > 0;
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
  /// The index-node decode both readers share: deserializes `page_data`
  /// and attaches the page's in-memory ELS blob, if any.
  Result<IndexNode> DecodeIndexNode(PageId id, const uint8_t* page_data,
                                    size_t page_size) const
      HT_REQUIRES_SHARED(rw_contract_);
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
  /// Drops everything kept in memory for `id`: its ELS blob, its flat node
  /// and its sidecar. Every path that frees a page, or rewrites an index
  /// page as a data page, calls it first (WriteIndexNode drops the flat
  /// node itself).
  void DropPageState(PageId id) HT_REQUIRES(rw_contract_);
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
  /// Installs a new root above the old one after a root-level split.
  Status GrowRoot(const SplitResult& s) HT_REQUIRES(rw_contract_);
  /// The split `s` of the kd region `region` as a kd node over two leaves,
  /// `left_page` and s.right_page, each coded against its side of `region`.
  std::unique_ptr<KdNode> SplitKdNode(const SplitResult& s, PageId left_page,
                                      const Box& region) const;
  /// One InsertBatch recursion step: inserts the batch rows indexed by
  /// `idxs` into the subtree at `page`. On a split of `page`, the rows
  /// not yet placed come back in `leftovers` for the caller to re-route
  /// against the updated structure. A bucket's kd region is the one
  /// captured when its first row was routed, recomputed only if a later
  /// row of the round widened a kd gap.
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
  /// re-encoding ELS codes of the widened subtree; adds the number of gaps
  /// it widened to `*widened`.
  ChildRef FindLeafForInsert(IndexNode& node, std::span<const float> p,
                             const Box& node_br, size_t* widened)
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
  // scratch and locals, never on the tree object. Every search reads a page
  // through one visit (VisitPage): the sidecar filter before the pin, the
  // pin, then the data-page scan or the index page's flat view. Box, range
  // and ScanAll walk depth first (Descend); the k-NN engine best first
  // (NextNeighbor). Each visited index node is scored with one batch call
  // over its flat view (MINDIST for range and k-NN, the box route plus one
  // overlap pass for box), finished before any child is descended, so the
  // per-node batch buffers need no base markers; only scratch->descents
  // nests. The query-kind steps are lambdas that touch no tree cache, so
  // they need no role; the members that do declare the shared role.

  /// The sidecar test a search runs on a data page's rows: a box scan's
  /// (`box`: the rows whose codes lie in the box's code range in every
  /// dimension, kernels.h ctm_box), a metric scan's (`metric`: the rows
  /// whose code lower bound from `center` does not exceed `bound`), or none
  /// (both null: ScanAll, and every `contained` page).
  struct RowFilter {
    const Box* box = nullptr;
    const DistanceMetric* metric = nullptr;
    std::span<const float> center = {};
    double bound = 0.0;
  };
  /// The one page visit of every search, filter before fetch: FilterRows
  /// from the page's cached sidecar first, and a data page with no
  /// surviving row is never pinned. Otherwise runs `before_pin()` (the k-NN
  /// engine's prefetch lookahead) and pins the page. A data page not yet
  /// filtered is filtered then (its sidecar built on first use), and
  /// `scan(rows, survivors)` gets its rows and the filter's survivors
  /// (scratch->survivors, ascending), or null when it was not filtered.
  /// Returns the flat node of an index page, or nullptr for a data page,
  /// scanned or ruled out.
  template <typename Scan, typename BeforePin>
  Result<const FlatIndexNode*> VisitPage(PageId page, const RowFilter& filter,
                                         SearchScratch* scratch,
                                         const Scan& scan,
                                         const BeforePin& before_pin) const
      HT_REQUIRES_SHARED(rw_contract_);
  /// The depth-first descent of box, range and ScanAll: visits `d`'s page
  /// with `filter` (none for a `contained` page) and scans a data page with
  /// scan(rows, survivors, d.contained). At an index node it appends the
  /// children to descend to scratch->descents in leaf order — below a
  /// contained node every child, contained; otherwise those `admit(node)`
  /// appends — prefetches them (PrefetchDescents), descends them in that
  /// order and truncates back, so results are byte-identical with prefetch
  /// on or off.
  template <typename Admit, typename Scan>
  Status Descend(SearchScratch::Descent d, const RowFilter& filter,
                 SearchScratch* scratch, const Admit& admit,
                 const Scan& scan) const HT_REQUIRES_SHARED(rw_contract_);
  /// The prefetch step of Descend: the children appended to
  /// scratch->descents from `first` on that RuledOutAhead does not rule out
  /// (a contained child never is) are prefetched as one batch, when there
  /// are at least two. So the batch holds exactly the pages the descent
  /// will pin.
  void PrefetchDescents(size_t first, const RowFilter& filter,
                        SearchScratch* scratch) const;
  /// The data-page distance scan of range and the k-NN engine, on the rows
  /// of a pinned page that VisitPage filtered into `survivors` (null: not
  /// filtered, so every row, tallied here): either a sparse per-row exact
  /// refine of the survivors or one bounded batch pass over the page.
  /// Calls emit(distance, id) in ascending row order. A row whose distance
  /// exceeds `bound` may be skipped or reported with any value above
  /// `bound`, so `emit` must only compare against thresholds at or under
  /// it; a row whose distance is NaN is never emitted; every other row
  /// gets its exact distance. A template over the emit callable so the
  /// hot path stays allocation-free.
  template <typename Emit>
  static void ScanDataPage(const DataPageScan& rows,
                           const std::vector<uint32_t>* survivors,
                           std::span<const float> center,
                           const DistanceMetric& metric, double bound,
                           SearchScratch* scratch, const Emit& emit);
  /// The k-NN engine (KnnCursor::Next, and the drain of the batch
  /// SearchKnnBoundedInto): best-first over `cursor`'s frontier, expanding
  /// the nearest pending page before it yields an entry at an equal or
  /// greater distance, until the nearest materialized entry is final; pops
  /// and returns it, or nullopt when the cursor is exhausted. Charges no
  /// scan counters: its callers charge the scratch's tally on return.
  Result<std::optional<std::pair<double, uint64_t>>> NextNeighbor(
      KnnCursor* cursor) const HT_REQUIRES_SHARED(rw_contract_);
  /// The sidecar filter of every page visit, run at most once per visit:
  /// MaskRows, then the surviving rows (ascending) into scratch->survivors,
  /// and the page's scan counters added to scratch->tally (charged to the
  /// pool when the search returns); returns true. A filter before the pin
  /// (`pinned` null) that leaves no row also tallies a skipped page, and
  /// the caller must not fetch it. Returns false and tallies nothing when
  /// MaskRows cannot filter.
  bool FilterRows(PageId page, const DataPageScan* pinned,
                  const RowFilter& filter, SearchScratch* scratch) const
      HT_REQUIRES_SHARED(rw_contract_);
  /// The one prefetch prediction (the k-NN lookahead and PrefetchDescents):
  /// true when `page`'s cached sidecar leaves no row, so FilterRows would
  /// rule it out before the pin (for the k-NN engine at a later visit too:
  /// its bound only shrinks). The MaskRows step of FilterRows, run on the
  /// cached sidecar; it charges nothing, decides nothing about the visit
  /// and leaves scratch->survivors alone. Called from the prefetch lambda,
  /// which the thread-safety analysis sees as a separate function, so it
  /// declares no role.
  bool RuledOutAhead(PageId page, const RowFilter& filter,
                     SearchScratch* scratch) const;
  /// The mask step of FilterRows and RuledOutAhead: writes one survivor bit
  /// per row of `page`'s sidecar into scratch->masks and returns the
  /// sidecar, or returns nullptr when it cannot filter. Before the pin
  /// (`pinned` null) it uses the page's cached sidecar, if any, and never
  /// builds one: a sidecar exists only for a live data page with exactly
  /// those rows (invalidated on every rewrite and free), so finding one
  /// also says the page is a data page. After the pin it builds the
  /// sidecar on first use. It cannot filter when the filter is none, when
  /// sidecars do not serve it (off, or the scalar tier, where the code pass
  /// costs more than the early-abandoning exact scan it would save; or a
  /// metric with no code-space bound, DistanceMetric::SupportsCodeFilter,
  /// whose codes would only fill QuantStore), when there is no sidecar, or
  /// when a metric's bound prunes nothing (+inf) or it has no mask kernel.
  const QuantizedPage* MaskRows(PageId page, const DataPageScan* pinned,
                                const RowFilter& filter,
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
  /// use completes before InsertBatchRec recurses into a child.
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

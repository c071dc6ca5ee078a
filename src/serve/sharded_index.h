// Copyright 2026 The HybridTree Authors.
// ShardedIndex: one logical dataset partitioned into N per-shard hybrid
// trees, queried scatter-gather: each request runs its own shard tasks,
// and idle workers of a shared exec ThreadPool may help.
//
// Partitioning reuses the parallel bulk loader's deterministic
// PartitionSubset cuts (kd-region, the default) or a splitmix64 hash of
// the row id (the skew fallback) — see serve/partition.h. Each shard is
// bulk-loaded with shard-local ids and a local→global id map, and never
// mutated afterwards: the serving tier is read-only by construction, so
// any number of requests may scatter over the shards concurrently.
//
// Scatter-gather and determinism: every search runs one task per shard,
// gathers per-shard results, and merges them into a CANONICAL order —
// box/range ids ascending, k-NN by (distance, id) ascending — so the
// answer is identical to a single unsharded tree over the same data
// (canonicalized the same way) at every shard count, partitioner, pool
// size, and split of tasks between threads. Equal-distance ties are
// broken by global id everywhere, which is what makes the k-NN result set
// well-defined even when the tie straddles the k-th boundary.
//
// Caller-runs scatter: a request claims its shard tasks one at a time
// from a per-request counter, in a visit order, and runs them on the
// calling thread until none is left; then it waits only for tasks a
// helper has already claimed, never for one no thread has started. The
// pool's size is the number of threads that may run shard work at once:
// a caller holds one slot while it claims, and a request submits helper
// tokens only into the slots still free (at most shards - 1). A token
// claims from the same counter and exits as soon as none is left. So a
// lone request fans out to idle workers, and at saturation (as many
// callers as workers) every request runs serially without touching the
// pool queue. A token may run after its request has returned — even
// after the index is destroyed — so it touches only state it co-owns
// (the claim counter, the completion latch and the slot count); the
// caller's stack is reached only through a claimed task, and the caller
// waits for every claimed task.
//
// Cross-shard k-NN bound tightening: shard tasks share one bounded top-k
// (mutex-guarded binary heap ordered by (distance, id)) whose k-th
// distance is mirrored in a lock-free atomic radius. Each task walks its
// shard with an incremental best-first cursor (HybridTree::KnnCursor,
// ascending distances) and stops as soon as its next candidate lies
// beyond the shared radius — so whichever shard finds good neighbors
// first prunes every other shard's traversal. k-NN visits shards nearest
// first (ascending MINDIST from the query to each shard's bounding box,
// ties by shard index), so with kd-region shards the query's own shard
// usually sets the radius before the others start. Stopping is exact:
// the radius only tightens, and a cursor past it can never contribute to
// the final top-k (candidates at exactly the radius keep streaming, which
// preserves id tie-breaking). The result is still canonical-deterministic
// under any thread interleaving; only the amount of pruning varies.
//
// Deadlines and cancellation ride in via ExecOptions: tasks check both
// before touching their shard, and the k-NN loop re-checks between cursor
// pops. A shard task that starts after the deadline fails the whole
// request with DeadlineExceeded — a partial scatter is a wrong answer,
// not a slow one.
//
// Threading: safe to call from any thread, the serving pool's own workers
// included (the caller runs every task no helper has claimed, so a
// scatter never waits on its own pool's queue). With a null pool the
// caller runs every task — same results, same loop, no helpers.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "data/dataset.h"
#include "exec/thread_pool.h"
#include "geometry/box.h"
#include "geometry/metrics.h"
#include "serve/partition.h"
#include "storage/cache_manager.h"
#include "storage/io_stats.h"
#include "storage/paged_file.h"

namespace ht {

/// Aggregated k-NN approximation accounting for one request or batch.
struct KnnExecStats {
  /// Data pages (leaves) scanned by k-NN traversals.
  uint64_t leaf_visits = 0;
  /// Traversals an approximation knob cut short of the exact search.
  uint64_t early_terminations = 0;

  void Accumulate(const KnnExecStats& other) {
    leaf_visits += other.leaf_visits;
    early_terminations += other.early_terminations;
  }
};

/// Per-request execution controls.
struct ExecOptions {
  /// Wall-clock budget for the request in seconds; 0 = no deadline. A
  /// shard task that has not started when the budget expires fails the
  /// request with DeadlineExceeded.
  double deadline_seconds = 0.0;
  /// Optional external cancellation flag, polled before each shard task.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional per-request I/O accounting sink: when set, the serving tier
  /// (ShardedIndex::RunOnShards) additionally accumulates the request's
  /// scatter-task IoStats — including the per-access-class cache counters —
  /// into it, so a server can attribute cache behaviour to the tenant that
  /// caused it. Written after the scatter barrier; not owned.
  IoStats* request_io = nullptr;
  /// k-NN recall knobs, exact by default (see core KnnSearchLimits for the
  /// semantics). epsilon makes every k-NN (1+epsilon)-approximate.
  double knn_epsilon = 0.0;
  /// Total k-NN leaf-visit budget per query; 0 = unlimited. The sharded
  /// tier splits it evenly across shards (ceil division, so the budget is
  /// never under-provisioned by rounding).
  size_t knn_max_leaf_visits = 0;
  /// Optional accounting sink for the knobs above: leaf visits and
  /// early-terminated traversals accumulate here (one count per shard
  /// traversal). Written after the scatter barrier, like request_io; not
  /// owned.
  KnnExecStats* knn_stats = nullptr;
};

struct ShardedIndexOptions {
  /// Number of shards (>= 1).
  size_t shards = 4;
  ShardPartitioner partitioner = ShardPartitioner::kKdRegion;
  /// Backing file per shard; default MemPagedFile. The index owns the
  /// returned files.
  std::function<std::unique_ptr<PagedFile>(size_t shard)> file_factory;
  /// Optional global cache budget: every shard's buffer pool registers
  /// with this manager at build (as "shard<N>") and unregisters in the
  /// destructor, so one memory budget is shared — and periodically
  /// rebalanced by observed demand misses — across all shards (and across
  /// multiple indexes sharing the manager). Not owned; must outlive the
  /// index. When set, it overrides tree_options.buffer_pool_pages with the
  /// manager's split. nullptr = independent per-shard capacities.
  CacheManager* cache_manager = nullptr;
};

class ShardedIndex {
 public:
  /// Partitions `data` and bulk-loads one tree per shard. `pool` lends
  /// idle workers to the scatters as helpers (not owned; may be nullptr
  /// for serial in-caller execution; replaceable later via set_pool under
  /// the caller's quiescence).
  static Result<std::unique_ptr<ShardedIndex>> Build(
      const HybridTreeOptions& tree_options,
      const ShardedIndexOptions& shard_options, const Dataset& data,
      ThreadPool* pool);

  ~ShardedIndex();
  HT_DISALLOW_COPY_AND_ASSIGN(ShardedIndex);

  /// All global ids inside `query`, ascending. Scatter-gather over every
  /// shard; honours options.deadline_seconds / options.cancel.
  Status SearchBox(const Box& query, const ExecOptions& options,
                   std::vector<uint64_t>* out) const;

  /// All global ids within `radius` of `center` under `metric`, ascending.
  Status SearchRange(std::span<const float> center, double radius,
                     const DistanceMetric& metric, const ExecOptions& options,
                     std::vector<uint64_t>* out) const;

  /// The k nearest neighbors as (distance, global id), ascending by
  /// (distance, id) — ties broken by id. Shards are visited nearest first,
  /// with cross-shard bound tightening via the shared atomic radius (see
  /// file comment).
  Status SearchKnn(std::span<const float> center, size_t k,
                   const DistanceMetric& metric, const ExecOptions& options,
                   std::vector<std::pair<double, uint64_t>>* out) const;

  size_t shards() const { return shards_.size(); }
  uint64_t size() const { return total_count_; }
  const HybridTreeOptions& tree_options() const { return tree_options_; }

  /// Shard tree / row count, exposed for stats and tests.
  const HybridTree& shard_tree(size_t s) const { return *shards_[s]->tree; }
  size_t shard_rows(size_t s) const {
    return shards_[s]->local_to_global.size();
  }

  /// I/O attributed to serving on shard `s` since build (or the last
  /// ResetIo): per-task IoStatsScope sums, so build I/O is excluded and
  /// the batched-read/prefetch counters reflect query traffic only.
  IoStats shard_io(size_t s) const;
  void ResetIo();

  /// Point-in-time cache gauges of shard `s`'s buffer pool (policy,
  /// current capacity target, occupancy, segment sizes, counters).
  BufferPool::CacheSnapshot shard_cache(size_t s) const {
    return shards_[s]->tree->pool().SnapshotCache();
  }

  /// Count-gated CacheManager rebalance hook; the server calls this once
  /// per executed request. No-op without a cache manager.
  void MaybeRebalanceCache() const {
    if (shard_options_.cache_manager != nullptr) {
      shard_options_.cache_manager->MaybeRebalance();
    }
  }

  ThreadPool* pool() const { return pool_; }
  /// Swaps the helper pool. Caller must guarantee no search is in flight
  /// (same exclusivity rule as every other mode switch in the library).
  /// The new pool starts with every slot free: tokens still queued on the
  /// old one keep (and later release) the old slot count.
  void set_pool(ThreadPool* pool) {
    pool_ = pool;
    busy_slots_ = std::make_shared<std::atomic<size_t>>(0);
  }

 private:
  struct Shard {
    std::unique_ptr<PagedFile> file;
    std::unique_ptr<HybridTree> tree;
    /// Shard-local id (bulk-load row index) -> global id.
    std::vector<uint64_t> local_to_global;
    /// Min and max of the shard's rows in each dimension (empty for an
    /// empty shard): the k-NN visit order's MINDIST target. Fixed at
    /// build, like everything else in a shard.
    Box bounds;
    /// Serving-attributed I/O, accumulated per scatter task. Leaf-level
    /// within the serve tier (never held across a tree or pool call).
    mutable Mutex io_mu{LockRank::kServeScatter, "ShardedIndex::Shard::io_mu"};
    mutable IoStats io HT_GUARDED_BY(io_mu);
  };

  ShardedIndex() = default;

  /// Runs `fn(shard_index)` once per shard, claimed in `order` (shard
  /// indices; index order when empty) by the calling thread and by helper
  /// tokens in free pool slots (see the file comment). Each task is
  /// wrapped in deadline/cancel checks and an IoStatsScope that lands in
  /// the shard's io counter. Returns the merged status: Cancelled beats
  /// hard failures beats DeadlineExceeded.
  Status RunOnShards(const ExecOptions& options, std::span<const size_t> order,
                     const std::function<Status(size_t)>& fn) const;

  /// The box and range scatter: runs search(tree, scratch, ids) on every
  /// shard with a borrowed scratch, maps the shard's ids to global ones,
  /// and leaves their union in `*out`, ascending.
  template <class Search>
  Status GatherIds(const ExecOptions& options, const Search& search,
                   std::vector<uint64_t>* out) const;

  /// Scratch free-list: scatter tasks borrow a SearchScratch for the
  /// duration of one per-shard search, so steady-state serving stays
  /// allocation-light without tying scratches to pool worker identity.
  std::unique_ptr<SearchScratch> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<SearchScratch> scratch) const;

  HybridTreeOptions tree_options_;
  ShardedIndexOptions shard_options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t total_count_ = 0;
  ThreadPool* pool_ = nullptr;
  /// Pool slots this index's scatters hold: a caller while it claims, a
  /// helper token from its submit until it exits. Co-owned by every
  /// submitted token, which may outlive the index. Relaxed: a count that
  /// publishes no data; every update is a read-modify-write, so it stays
  /// exact.
  std::shared_ptr<std::atomic<size_t>> busy_slots_ =
      std::make_shared<std::atomic<size_t>>(0);

  mutable Mutex scratch_mu_{LockRank::kServeScatter,
                            "ShardedIndex::scratch_mu_"};
  mutable std::vector<std::unique_ptr<SearchScratch>> scratch_pool_
      HT_GUARDED_BY(scratch_mu_);
};

}  // namespace ht

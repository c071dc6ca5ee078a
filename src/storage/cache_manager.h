// Copyright 2026 The HybridTree Authors.
// CacheManager: one global page-cache memory budget across many BufferPools.
//
// The serving layer (serve/sharded_index.h) gives every shard its own
// BufferPool, which in isolation means a fixed 1/N split of cache memory no
// matter how skewed the traffic is. The CacheManager owns the global budget
// instead: pools register with it (receiving an even split to start) and a
// periodic Rebalance() retargets each pool's capacity by observed marginal
// utility — pools whose recent window shows more demand misses (misses are
// where extra capacity pays off) are granted more pages, subject to a
// per-pool floor, with exponential smoothing so one bursty window cannot
// thrash capacities. Capacity changes are applied through
// BufferPool::SetCapacity, which is safe against concurrent fetch traffic,
// so rebalancing never blocks queries.
//
// Thread safety: all methods are safe to call concurrently; one internal
// mutex serializes registration and rebalancing. The manager never holds a
// pool's lock except inside SetCapacity calls, and pools never call back
// into the manager, so there is no lock cycle.
//
// Lifetime: callers must Unregister a pool before destroying it (the
// ShardedIndex does this in its destructor). The manager does not own pools.

#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"

namespace ht {

struct CacheManagerOptions {
  /// Global budget, in pages, split across every registered pool. 0 means
  /// unbounded: registration leaves every pool at capacity 0 (no limit)
  /// and Rebalance is a no-op.
  size_t total_budget_pages = 0;
  /// No pool is ever retargeted below this floor (keeps a cold tenant from
  /// being starved to the point where a single query thrashes).
  size_t min_pool_pages = 64;
  /// MaybeRebalance() triggers an actual Rebalance() every this many calls
  /// (the serving layer calls it once per request).
  uint64_t rebalance_interval = 256;
  /// Exponential-smoothing factor applied to capacity retargets: the new
  /// target is smoothing * raw + (1 - smoothing) * current. 1.0 jumps
  /// straight to the raw demand split; small values adapt slowly.
  double smoothing = 0.5;
};

class CacheManager {
 public:
  explicit CacheManager(CacheManagerOptions options = {});
  HT_DISALLOW_COPY_AND_ASSIGN(CacheManager);

  /// Registers `pool` under `name` (for reporting) and re-splits the budget
  /// evenly across all registered pools. Idempotent per pool pointer.
  void Register(const std::string& name, BufferPool* pool);

  /// Removes `pool` from management, leaving its current capacity in place,
  /// and re-spreads the freed budget across the remaining pools. No-op if
  /// the pool was never registered.
  void Unregister(BufferPool* pool);

  /// Count-gated rebalance hook for request paths: every
  /// rebalance_interval-th call runs Rebalance(). Cheap otherwise (one
  /// relaxed atomic increment).
  void MaybeRebalance();

  /// Retargets every registered pool's capacity by the demand misses
  /// observed since the previous rebalance (see the file comment).
  void Rebalance();

  size_t total_budget_pages() const { return options_.total_budget_pages; }
  size_t pool_count() const;

  /// Point-in-time per-pool accounting for metrics export.
  struct PoolReport {
    std::string name;
    size_t capacity_pages = 0;  // pool's current target
    uint64_t window_hits = 0;   // demand hits since the last rebalance
    uint64_t window_misses = 0;
    double window_hit_rate = 0.0;
  };
  std::vector<PoolReport> Report() const;

 private:
  struct Entry {
    std::string name;
    BufferPool* pool = nullptr;
    /// Counter snapshot at the last rebalance; the delta against the
    /// pool's live counters is the observation window.
    IoStats last;
  };

  /// Sum of demand hits/misses across all access classes in `s`.
  static void DemandTotals(const IoStats& s, uint64_t* hits,
                           uint64_t* misses);
  /// Splits the budget evenly across entries_.
  void SplitEvenLocked() HT_REQUIRES(mu_);

  const CacheManagerOptions options_;
  /// Outermost lock in the pool hierarchy: Rebalance/SetCapacity take each
  /// pool's lock while mu_ is held (see common/lock_rank.h).
  mutable Mutex mu_{LockRank::kCacheManager, "CacheManager::mu_"};
  std::vector<Entry> entries_ HT_GUARDED_BY(mu_);
  /// Relaxed counter: MaybeRebalance only needs a unique per-call value to
  /// gate the interval; no ordering with any other data.
  std::atomic<uint64_t> tick_{0};
};

}  // namespace ht

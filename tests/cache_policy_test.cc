// Eviction-policy unit tests for the segmented (scan-resistant) buffer
// pool, the access-class I/O counters, and the CacheManager's global
// budget arbitration — plus a TSAN stress for concurrent rebalance-vs-
// fetch traffic (the CI TSAN job runs this binary).
//
// The properties under test (see storage/buffer_pool.h):
//  * kLru is byte-for-byte the classic single-list policy.
//  * kSlru promotes on re-reference (always for query traffic, only with
//    sketch evidence for scan traffic), so a full one-touch sweep cannot
//    displace the promoted hot set — it churns probation only.
//  * Prefetched-never-referenced pages live outside the recency lists;
//    once a newer batch lands they are evicted FIRST, while the freshest
//    batch is spared until probation is exhausted.
//  * SetCapacity reshapes a live pool; the CacheManager uses it to split
//    one budget across pools by observed demand misses.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/cache_manager.h"

namespace ht {
namespace {

/// Allocates `n` one-byte-stamped pages through the pool (unbounded
/// capacity assumed) and returns their ids.
std::vector<PageId> MakePages(BufferPool& pool, size_t n) {
  std::vector<PageId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PageHandle h = pool.New().ValueOrDie();
    h.data()[0] = static_cast<uint8_t>(i);
    h.MarkDirty();
    ids.push_back(h.id());
  }
  return ids;
}

uint64_t QueryMisses(const BufferPool& pool) {
  return pool.stats().class_misses[static_cast<size_t>(AccessClass::kQuery)];
}

uint64_t ClassEvictions(const BufferPool& pool, AccessClass c) {
  return pool.stats().class_evictions[static_cast<size_t>(c)];
}

// The tentpole property: a promoted hot working set survives a full
// one-touch scan sweep untouched — the sweep may only churn probation.
TEST(CachePolicyTest, ScanResistanceHotSetSurvivesFullSweep) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0, CachePolicy::kSlru);
  std::vector<PageId> ids = MakePages(pool, 100);
  ASSERT_TRUE(pool.SetCapacity(32).ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();

  // Warm the hot set: the second (query-class) touch promotes each page
  // into the protected segment.
  const size_t kHot = 16;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < kHot; ++i) {
      ASSERT_TRUE(pool.Fetch(ids[i]).ok());
    }
  }
  EXPECT_EQ(pool.SnapshotCache().protected_pages, kHot);

  // Full scan sweep: every page once, tagged as scan traffic.
  {
    AccessClassScope scan(AccessClass::kScan);
    for (PageId id : ids) ASSERT_TRUE(pool.Fetch(id).ok());
  }

  // The hot set must still be resident: zero query-class misses on
  // re-reference, and every sweep eviction was charged to probation
  // churn, not to the protected set.
  const uint64_t misses_before = QueryMisses(pool);
  for (size_t i = 0; i < kHot; ++i) {
    ASSERT_TRUE(pool.Fetch(ids[i]).ok());
  }
  EXPECT_EQ(QueryMisses(pool), misses_before);
  EXPECT_EQ(pool.SnapshotCache().protected_pages, kHot);
  EXPECT_EQ(ClassEvictions(pool, AccessClass::kQuery), 0u);
  EXPECT_GT(ClassEvictions(pool, AccessClass::kScan), 0u);
}

// Scan-class re-references do not promote without sketch evidence of
// genuine multi-touch (>= kSketchPromote accesses), so even a REPEATED
// scan cannot flood the protected segment.
TEST(CachePolicyTest, ScanTrafficNeedsFrequencyEvidenceToPromote) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0, CachePolicy::kSlru);
  std::vector<PageId> ids = MakePages(pool, 8);
  ASSERT_TRUE(pool.SetCapacity(32).ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();

  AccessClassScope scan(AccessClass::kScan);
  // Pass 1 (miss, freq 1) and pass 2 (hit, freq 2): still probation.
  for (int pass = 0; pass < 2; ++pass) {
    for (PageId id : ids) ASSERT_TRUE(pool.Fetch(id).ok());
  }
  EXPECT_EQ(pool.SnapshotCache().protected_pages, 0u);
  // Pass 3 (freq reaches the promote threshold): now protected.
  for (PageId id : ids) ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_EQ(pool.SnapshotCache().protected_pages, ids.size());
}

// kLru must behave exactly like the classic single-list policy: victims
// in recency order, no segmentation, no prefetch queue.
TEST(CachePolicyTest, KLruIsPlainLru) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0, CachePolicy::kLru);
  std::vector<PageId> ids = MakePages(pool, 5);
  ASSERT_TRUE(pool.SetCapacity(3).ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();

  // A, B, C resident; touch A; D must evict B (the LRU victim).
  ASSERT_TRUE(pool.Fetch(ids[0]).ok());
  ASSERT_TRUE(pool.Fetch(ids[1]).ok());
  ASSERT_TRUE(pool.Fetch(ids[2]).ok());
  ASSERT_TRUE(pool.Fetch(ids[0]).ok());
  ASSERT_TRUE(pool.Fetch(ids[3]).ok());
  uint64_t misses = QueryMisses(pool);
  ASSERT_TRUE(pool.Fetch(ids[0]).ok());  // A: hit (was MRU-refreshed)
  ASSERT_TRUE(pool.Fetch(ids[2]).ok());  // C: hit (younger than B)
  EXPECT_EQ(QueryMisses(pool), misses);
  ASSERT_TRUE(pool.Fetch(ids[1]).ok());  // B: the evicted one — miss
  EXPECT_EQ(QueryMisses(pool), misses + 1);

  const BufferPool::CacheSnapshot snap = pool.SnapshotCache();
  EXPECT_EQ(snap.policy, CachePolicy::kLru);
  EXPECT_EQ(snap.protected_pages, 0u);
  EXPECT_EQ(snap.prefetch_queue_pages, 0u);
  EXPECT_EQ(snap.probation_pages, snap.cached_pages);
}

// Satellite 3: prefetched-but-never-referenced pages from a SUPERSEDED
// batch are the first eviction victims — before any demand page — while
// the freshest batch is spared (it is about to be consumed).
TEST(CachePolicyTest, StalePrefetchEvictedFirstFreshBatchSpared) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0, CachePolicy::kSlru);
  std::vector<PageId> ids = MakePages(pool, 40);
  ASSERT_TRUE(pool.SetCapacity(16).ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();

  // Protected hot set of 8.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < 8; ++i) ASSERT_TRUE(pool.Fetch(ids[i]).ok());
  }
  // Batch A (will go stale), then batch B (the fresh one).
  const std::vector<PageId> batch_a(ids.begin() + 8, ids.begin() + 12);
  const std::vector<PageId> batch_b(ids.begin() + 12, ids.begin() + 16);
  pool.Prefetch(batch_a);
  pool.Prefetch(batch_b);
  EXPECT_EQ(pool.SnapshotCache().prefetch_queue_pages, 8u);

  // Two demand misses at full capacity: both victims must come from the
  // stale batch A — not from the hot set, not from fresh batch B.
  ASSERT_TRUE(pool.Fetch(ids[20]).ok());
  ASSERT_TRUE(pool.Fetch(ids[21]).ok());
  EXPECT_EQ(pool.SnapshotCache().prefetch_queue_pages, 6u);
  EXPECT_EQ(ClassEvictions(pool, AccessClass::kPrefetch), 2u);

  // Fresh batch B is fully intact: every fetch is a prefetch hit.
  const uint64_t phits = pool.stats().prefetch_hits;
  for (PageId id : batch_b) ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_EQ(pool.stats().prefetch_hits, phits + batch_b.size());

  // And the protected hot set never paid for any of it.
  const uint64_t misses = QueryMisses(pool);
  for (size_t i = 0; i < 8; ++i) ASSERT_TRUE(pool.Fetch(ids[i]).ok());
  EXPECT_EQ(QueryMisses(pool), misses);
}

// A single outstanding prefetch batch (no newer one) is NOT stale: demand
// misses take probation victims instead, so the batch survives to be
// consumed.
TEST(CachePolicyTest, FreshPrefetchSurvivesDemandMisses) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0, CachePolicy::kSlru);
  std::vector<PageId> ids = MakePages(pool, 20);
  ASSERT_TRUE(pool.SetCapacity(8).ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();

  // Six one-touch probation pages, then a 4-page prefetch batch: filling
  // it evicts probation tails, never its own pages.
  for (size_t i = 0; i < 6; ++i) ASSERT_TRUE(pool.Fetch(ids[i]).ok());
  const std::vector<PageId> batch(ids.begin() + 6, ids.begin() + 10);
  pool.Prefetch(batch);
  EXPECT_EQ(pool.SnapshotCache().prefetch_queue_pages, batch.size());

  // More demand misses at capacity: victims come from probation.
  ASSERT_TRUE(pool.Fetch(ids[10]).ok());
  ASSERT_TRUE(pool.Fetch(ids[11]).ok());
  EXPECT_EQ(pool.SnapshotCache().prefetch_queue_pages, batch.size());

  const uint64_t phits = pool.stats().prefetch_hits;
  for (PageId id : batch) ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_EQ(pool.stats().prefetch_hits, phits + batch.size());
}

TEST(CachePolicyTest, SetCapacityShrinksAndGrows) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0, CachePolicy::kSlru);
  std::vector<PageId> ids = MakePages(pool, 20);
  EXPECT_EQ(pool.SnapshotCache().cached_pages, 20u);

  ASSERT_TRUE(pool.SetCapacity(5).ok());
  EXPECT_LE(pool.SnapshotCache().cached_pages, 5u);
  EXPECT_EQ(pool.capacity(), 5u);

  ASSERT_TRUE(pool.SetCapacity(12).ok());
  for (PageId id : ids) ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_LE(pool.SnapshotCache().cached_pages, 12u);
  EXPECT_EQ(pool.capacity(), 12u);
}

// The per-class counters obey the IoStats algebra used by the serving
// tier (Accumulate for scatter sums, Delta for windows, Reset).
TEST(CachePolicyTest, ClassCountersAccumulateDeltaReset) {
  IoStats a, b;
  a.class_hits[0] = 10;
  a.class_misses[0] = 5;
  a.class_evictions[2] = 3;
  b.class_hits[0] = 1;
  b.class_misses[1] = 7;
  a.Accumulate(b);
  EXPECT_EQ(a.class_hits[0], 11u);
  EXPECT_EQ(a.class_misses[1], 7u);
  EXPECT_DOUBLE_EQ(a.ClassHitRate(AccessClass::kQuery), 11.0 / 16.0);

  IoStats since;
  since.class_hits[0] = 4;
  const IoStats d = a.Delta(since);
  EXPECT_EQ(d.class_hits[0], 7u);
  EXPECT_EQ(d.class_evictions[2], 3u);

  a.Reset();
  EXPECT_EQ(a.class_hits[0], 0u);
  EXPECT_EQ(a.class_misses[1], 0u);
  EXPECT_EQ(a.class_evictions[2], 0u);
}

// CacheManager: registration splits the budget evenly; rebalance shifts
// capacity toward the pool with the demand misses; unregistration returns
// the freed share.
TEST(CacheManagerTest, SplitRebalanceUnregister) {
  MemPagedFile file_a(256), file_b(256);
  BufferPool pool_a(&file_a, 0, CachePolicy::kSlru);
  BufferPool pool_b(&file_b, 0, CachePolicy::kSlru);
  std::vector<PageId> ids_a = MakePages(pool_a, 64);
  std::vector<PageId> ids_b = MakePages(pool_b, 64);

  CacheManagerOptions mopts;
  mopts.total_budget_pages = 64;
  mopts.min_pool_pages = 8;
  mopts.rebalance_interval = 4;
  mopts.smoothing = 1.0;  // jump straight to the computed target
  CacheManager mgr(mopts);
  mgr.Register("a", &pool_a);
  mgr.Register("b", &pool_b);
  EXPECT_EQ(mgr.pool_count(), 2u);
  EXPECT_EQ(pool_a.capacity(), 32u);
  EXPECT_EQ(pool_b.capacity(), 32u);

  // Pool A takes heavy demand-miss traffic; pool B stays idle.
  for (int round = 0; round < 3; ++round) {
    for (PageId id : ids_a) ASSERT_TRUE(pool_a.Fetch(id).ok());
  }
  std::vector<CacheManager::PoolReport> reports = mgr.Report();
  ASSERT_EQ(reports.size(), 2u);
  const size_t ia = reports[0].name == "a" ? 0 : 1;
  EXPECT_GT(reports[ia].window_misses, 0u);
  EXPECT_EQ(reports[1 - ia].window_misses, 0u);

  // MaybeRebalance is count-gated: only the interval-th call rebalances.
  for (int i = 0; i < 3; ++i) mgr.MaybeRebalance();
  EXPECT_EQ(pool_a.capacity(), 32u);
  mgr.MaybeRebalance();  // 4th call fires
  EXPECT_GT(pool_a.capacity(), pool_b.capacity());
  EXPECT_EQ(pool_b.capacity(), mopts.min_pool_pages);
  EXPECT_LE(pool_a.capacity() + pool_b.capacity(), mopts.total_budget_pages);

  mgr.Unregister(&pool_a);
  EXPECT_EQ(mgr.pool_count(), 1u);
  EXPECT_EQ(pool_b.capacity(), mopts.total_budget_pages);
  mgr.Unregister(&pool_b);
}

// TSAN stress: concurrent demand fetches (all access classes), prefetch
// batches, and a rebalance loop resizing the pool through the manager.
// The assertion is cleanliness under TSAN; the counters just sanity-check
// that both sides actually ran.
TEST(CachePolicyStress, ConcurrentRebalanceVsFetch) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0, CachePolicy::kSlru);
  std::vector<PageId> ids = MakePages(pool, 128);
  ASSERT_TRUE(pool.SetCapacity(64).ok());

  CacheManagerOptions mopts;
  mopts.total_budget_pages = 64;
  mopts.min_pool_pages = 16;
  mopts.rebalance_interval = 1;
  CacheManager mgr(mopts);
  mgr.Register("p", &pool);

  constexpr int kFetchThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kFetchThreads; ++t) {
    threads.emplace_back([&, t] {
      const AccessClass classes[] = {AccessClass::kQuery, AccessClass::kScan,
                                     AccessClass::kIngest};
      uint64_t x = 0x9E3779B9u * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < kIters; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const PageId id = ids[x % ids.size()];
        AccessClassScope cls(classes[i % 3]);
        ASSERT_TRUE(pool.Fetch(id).ok());
        if (i % 64 == 0) {
          const PageId batch[3] = {ids[(x + 1) % ids.size()],
                                   ids[(x + 2) % ids.size()],
                                   ids[(x + 3) % ids.size()]};
          pool.Prefetch(batch);
        }
      }
    });
  }
  std::thread rebalancer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      mgr.MaybeRebalance();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  rebalancer.join();
  mgr.Unregister(&pool);

  const IoStats stats = pool.stats();
  uint64_t demand = 0;
  for (size_t c = 0; c < kNumAccessClasses; ++c) {
    demand += stats.class_hits[c] + stats.class_misses[c];
  }
  EXPECT_EQ(demand, static_cast<uint64_t>(kFetchThreads) * kIters);
  EXPECT_GE(pool.capacity(), mopts.min_pool_pages);
}

}  // namespace
}  // namespace ht

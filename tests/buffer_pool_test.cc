// Unit tests for the LRU buffer pool.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ht {
namespace {

TEST(BufferPoolTest, NewThenFetchRoundTrip) {
  MemPagedFile file(256);
  BufferPool pool(&file, 4);
  PageId id;
  {
    PageHandle h = pool.New().ValueOrDie();
    id = h.id();
    h.data()[10] = 77;
    h.MarkDirty();
  }
  {
    PageHandle h = pool.Fetch(id).ValueOrDie();
    EXPECT_EQ(h.data()[10], 77);
  }
}

TEST(BufferPoolTest, DirtyPageSurvivesEviction) {
  MemPagedFile file(256);
  BufferPool pool(&file, 2);
  PageId id;
  {
    PageHandle h = pool.New().ValueOrDie();
    id = h.id();
    h.data()[0] = 5;
    h.MarkDirty();
  }
  // Evict by touching more pages than capacity.
  for (int i = 0; i < 4; ++i) {
    PageHandle h = pool.New().ValueOrDie();
    h.MarkDirty();
  }
  EXPECT_LE(pool.cached_frames(), 2u);
  PageHandle h = pool.Fetch(id).ValueOrDie();
  EXPECT_EQ(h.data()[0], 5);
  EXPECT_GT(pool.stats().evictions, 0u);
}

TEST(BufferPoolTest, PinnedFullPoolOverflowsDemandThenDrains) {
  MemPagedFile file(256);
  BufferPool pool(&file, 2);
  PageHandle pinned = pool.New().ValueOrDie();
  pinned.MarkDirty();
  PageHandle pinned2 = pool.New().ValueOrDie();
  pinned2.MarkDirty();
  // Pool full of pinned pages: a demand allocation is admitted over
  // capacity (never a spurious ResourceExhausted under concurrency) and
  // the overflow is counted.
  auto r = pool.New();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(pool.stats().pin_overflows, 1u);
  EXPECT_EQ(pool.cached_frames(), 3u);
  r->MarkDirty();
  // Once pins release, the next demand miss drains the shard back to its
  // capacity target before installing.
  r->Release();
  pinned.Release();
  pinned2.Release();
  PageHandle again = pool.New().ValueOrDie();
  again.MarkDirty();
  EXPECT_LE(pool.cached_frames(), 2u);
}

TEST(BufferPoolTest, LogicalReadsCountEveryFetch) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  PageId id;
  {
    PageHandle h = pool.New().ValueOrDie();
    id = h.id();
    h.MarkDirty();
  }
  pool.ResetStats();
  for (int i = 0; i < 5; ++i) {
    PageHandle h = pool.Fetch(id).ValueOrDie();
  }
  // All hits (unbounded pool), but each Fetch is a logical access —
  // the unit the paper's disk-access plots use.
  EXPECT_EQ(pool.stats().logical_reads, 5u);
  EXPECT_EQ(pool.stats().physical_reads, 0u);
}

TEST(BufferPoolTest, EvictAllMakesNextFetchPhysical) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  PageId id;
  {
    PageHandle h = pool.New().ValueOrDie();
    id = h.id();
    h.MarkDirty();
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  PageHandle h = pool.Fetch(id).ValueOrDie();
  EXPECT_EQ(pool.stats().physical_reads, 1u);
}

TEST(BufferPoolTest, FreeDropsFrame) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  PageId id;
  {
    PageHandle h = pool.New().ValueOrDie();
    id = h.id();
    h.MarkDirty();
  }
  ASSERT_TRUE(pool.Free(id).ok());
  EXPECT_EQ(pool.cached_frames(), 0u);
  EXPECT_FALSE(pool.Fetch(id).ok());  // unallocated in backing file
}

TEST(BufferPoolTest, FreePinnedPageRejected) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  PageHandle h = pool.New().ValueOrDie();
  EXPECT_TRUE(pool.Free(h.id()).IsInvalidArgument());
}

TEST(BufferPoolTest, MoveHandleTransfersPin) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  PageHandle a = pool.New().ValueOrDie();
  EXPECT_EQ(pool.pinned_frames(), 1u);
  PageHandle b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool.pinned_frames(), 1u);
  b.Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, FlushWritesDirtyPagesToFile) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  PageId id;
  {
    PageHandle h = pool.New().ValueOrDie();
    id = h.id();
    h.data()[3] = 99;
    h.MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  Page raw(256);
  ASSERT_TRUE(file.Read(id, &raw).ok());
  EXPECT_EQ(raw.data()[3], 99);
}

TEST(BufferPoolTest, FlushAllWritesAllDirtyPagesInOneBatch) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0);  // serial mode: one shard, one round trip
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) {
    PageHandle h = pool.New().ValueOrDie();
    h.data()[0] = static_cast<uint8_t>(i + 1);
    h.MarkDirty();
    ids.push_back(h.id());
  }
  file.ResetStats();
  pool.ResetStats();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(file.stats().batch_writes, 1u);
  EXPECT_EQ(file.stats().writes, 5u);
  EXPECT_EQ(pool.stats().batch_writes, 1u);
  EXPECT_EQ(pool.stats().writes, 5u);
  for (size_t i = 0; i < ids.size(); ++i) {
    Page raw(256);
    ASSERT_TRUE(file.Read(ids[i], &raw).ok());
    EXPECT_EQ(raw.data()[0], static_cast<uint8_t>(i + 1));
  }
  // Dirty flags were cleared: a second flush issues no I/O at all.
  file.ResetStats();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(file.stats().writes, 0u);
  EXPECT_EQ(file.stats().batch_writes, 0u);
}

TEST(BufferPoolTest, FlushAllSingleDirtyPageUsesPlainWrite) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  {
    PageHandle h = pool.New().ValueOrDie();
    h.MarkDirty();
  }
  file.ResetStats();
  ASSERT_TRUE(pool.FlushAll().ok());
  // A singleton dirty set degrades to Write — no batch setup cost.
  EXPECT_EQ(file.stats().writes, 1u);
  EXPECT_EQ(file.stats().batch_writes, 0u);
}

TEST(BufferPoolTest, FlushAllExceptThenFlushPageOrdersSkippedPageLast) {
  // The two-phase flush HybridTree uses: everything except the metadata
  // page first, then the metadata page by itself.
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  PageId meta, a, b;
  {
    PageHandle h = pool.New().ValueOrDie();
    meta = h.id();
    h.data()[0] = 7;
    h.MarkDirty();
  }
  {
    PageHandle h = pool.New().ValueOrDie();
    a = h.id();
    h.data()[0] = 8;
    h.MarkDirty();
  }
  {
    PageHandle h = pool.New().ValueOrDie();
    b = h.id();
    h.data()[0] = 9;
    h.MarkDirty();
  }
  file.ResetStats();
  ASSERT_TRUE(pool.FlushAllExcept(meta).ok());
  EXPECT_EQ(file.stats().writes, 2u);
  Page raw(256);
  ASSERT_TRUE(file.Read(a, &raw).ok());
  EXPECT_EQ(raw.data()[0], 8);
  ASSERT_TRUE(file.Read(b, &raw).ok());
  EXPECT_EQ(raw.data()[0], 9);
  // The skipped page is still only in the pool.
  ASSERT_TRUE(file.Read(meta, &raw).ok());
  EXPECT_EQ(raw.data()[0], 0);
  ASSERT_TRUE(pool.FlushPage(meta).ok());
  ASSERT_TRUE(file.Read(meta, &raw).ok());
  EXPECT_EQ(raw.data()[0], 7);
  // FlushPage on a clean or uncached page is a no-op.
  file.ResetStats();
  ASSERT_TRUE(pool.FlushPage(meta).ok());
  ASSERT_TRUE(pool.FlushPage(static_cast<PageId>(9999)).ok());
  EXPECT_EQ(file.stats().writes, 0u);
}

TEST(BufferPoolTest, FlushAllBatchesPerShardInConcurrentMode) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  ASSERT_TRUE(pool.SetConcurrentMode(true).ok());
  const size_t kPages = 48;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    PageHandle h = pool.New().ValueOrDie();
    h.data()[0] = static_cast<uint8_t>(i + 1);
    h.MarkDirty();
    ids.push_back(h.id());
  }
  file.ResetStats();
  ASSERT_TRUE(pool.FlushAll().ok());
  // Every dirty page goes out, at most one round trip per shard (16
  // shards) rather than one per page.
  EXPECT_EQ(file.stats().writes, kPages);
  EXPECT_LE(file.stats().batch_writes, 16u);
  EXPECT_GE(file.stats().batch_writes, 1u);
  for (size_t i = 0; i < kPages; ++i) {
    Page raw(256);
    ASSERT_TRUE(file.Read(ids[i], &raw).ok());
    EXPECT_EQ(raw.data()[0], static_cast<uint8_t>(i + 1));
  }
}

TEST(BufferPoolTest, ConcurrentReadersDuringFlushAll) {
  // TSAN target: FlushAll's per-shard collect-and-batch runs while reader
  // threads fetch the same pages. Readers never mark dirty, so the only
  // contention is shard locks and LRU state.
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  ASSERT_TRUE(pool.SetConcurrentMode(true).ok());
  const size_t kPages = 32;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    PageHandle h = pool.New().ValueOrDie();
    h.data()[0] = static_cast<uint8_t>(i + 1);
    h.MarkDirty();
    ids.push_back(h.id());
  }

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint32_t state = 0x9e3779b9u * static_cast<uint32_t>(t + 1);
      for (int i = 0; i < 300; ++i) {
        state = state * 1664525u + 1013904223u;
        const size_t k = state % kPages;
        PageHandle h = pool.Fetch(ids[k]).ValueOrDie();
        EXPECT_EQ(h.data()[0], static_cast<uint8_t>(k + 1));
      }
    });
  }
  std::thread flusher([&] {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(pool.FlushAll().ok());
    }
  });
  for (auto& t : readers) t.join();
  flusher.join();
  for (size_t i = 0; i < kPages; ++i) {
    Page raw(256);
    ASSERT_TRUE(file.Read(ids[i], &raw).ok());
    EXPECT_EQ(raw.data()[0], static_cast<uint8_t>(i + 1));
  }
}

TEST(BufferPoolTest, PinsRaceEvictionAndFrameReuse) {
  // TSAN target for the lock-free hit: readers pin pages while a resizer
  // flips the pool between unbounded (hits take no lock) and a few pages
  // (shrinks evict, and misses reuse the evicted frames). A reader must
  // never keep a pin on a frame that was evicted or reused under it.
  // Twice as many readers as a 4-core host has cores, so readers get
  // preempted between the frame-table load and the pin: without the id
  // re-check after the pin, this test fails in nearly every run.
  MemPagedFile file(256);
  constexpr size_t kPages = 48;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    ids.push_back(file.Allocate().ValueOrDie());
    Page p(file.page_size());
    std::memcpy(p.data(), &ids.back(), sizeof(PageId));  // stamp = own id
    ASSERT_TRUE(file.Write(ids.back(), p).ok());
  }
  BufferPool pool(&file, 0);
  ASSERT_TRUE(pool.SetConcurrentMode(true).ok());

  constexpr int kReaders = 8;
  constexpr int kFetches = 300000;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::thread resizer([&] {
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      // 8 pages over 16 shards leaves one frame per shard.
      if (!pool.SetCapacity(i % 2 == 0 ? 0 : 8).ok()) wrong.fetch_add(1);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint32_t state = 0x9e3779b9u * static_cast<uint32_t>(t + 1);
      for (int i = 0; i < kFetches; ++i) {
        state = state * 1664525u + 1013904223u;
        const PageId id = ids[state % kPages];
        auto r = pool.Fetch(id);
        if (!r.ok()) {
          wrong.fetch_add(1);
          continue;
        }
        PageId stamp;
        std::memcpy(&stamp, r->data(), sizeof(PageId));
        if (stamp != id) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true, std::memory_order_relaxed);
  resizer.join();

  EXPECT_EQ(wrong.load(), 0);
  const IoStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.logical_reads, static_cast<uint64_t>(kReaders) * kFetches);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_TRUE(pool.AssertNoPins().ok());
}

// --- FetchMany / Prefetch --------------------------------------------------

/// Allocates `n` pages directly in `file`, stamping page i's first byte
/// with `i + 1` so tests can verify contents after a batch fetch.
std::vector<PageId> AllocStamped(MemPagedFile& file, size_t n) {
  std::vector<PageId> ids;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(file.Allocate().ValueOrDie());
    Page p(file.page_size());
    p.data()[0] = static_cast<uint8_t>(i + 1);
    EXPECT_TRUE(file.Write(ids.back(), p).ok());
  }
  return ids;
}

TEST(BufferPoolTest, FetchManyMissesUseOneBatchRead) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 4);
  BufferPool pool(&file, 0);
  file.ResetStats();

  std::vector<PageHandle> handles;
  ASSERT_TRUE(pool.FetchMany(ids, &handles).ok());
  ASSERT_EQ(handles.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(handles[i].id(), ids[i]);
    EXPECT_EQ(handles[i].data()[0], static_cast<uint8_t>(i + 1));
  }
  EXPECT_EQ(pool.pinned_frames(), ids.size());
  // One batched round trip for all four misses; logical accounting is
  // identical to four separate Fetch calls.
  EXPECT_EQ(file.stats().batch_reads, 1u);
  EXPECT_EQ(pool.stats().logical_reads, 4u);
  EXPECT_EQ(pool.stats().physical_reads, 4u);
  EXPECT_EQ(pool.stats().batch_reads, 1u);
  handles.clear();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, FetchManyMixedHitsAndMisses) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 3);
  BufferPool pool(&file, 0);
  { PageHandle warm = pool.Fetch(ids[0]).ValueOrDie(); }
  pool.ResetStats();
  file.ResetStats();

  std::vector<PageHandle> handles;
  ASSERT_TRUE(pool.FetchMany(ids, &handles).ok());
  EXPECT_EQ(pool.stats().logical_reads, 3u);
  EXPECT_EQ(pool.stats().physical_reads, 2u);  // ids[0] was already cached
  EXPECT_EQ(file.stats().batch_reads, 1u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(handles[i].data()[0], static_cast<uint8_t>(i + 1));
  }
}

TEST(BufferPoolTest, FetchManyDuplicateIdsPinEachOccurrence) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 2);
  BufferPool pool(&file, 0);
  file.ResetStats();

  std::vector<PageId> req = {ids[0], ids[0], ids[1], ids[0]};
  std::vector<PageHandle> handles;
  ASSERT_TRUE(pool.FetchMany(req, &handles).ok());
  ASSERT_EQ(handles.size(), 4u);
  EXPECT_EQ(handles[0].data()[0], 1);
  EXPECT_EQ(handles[1].data()[0], 1);
  EXPECT_EQ(handles[2].data()[0], 2);
  EXPECT_EQ(handles[3].data()[0], 1);
  // Two distinct frames, each duplicate holds its own pin on the shared one.
  EXPECT_EQ(pool.cached_frames(), 2u);
  EXPECT_EQ(pool.stats().logical_reads, 4u);
  EXPECT_EQ(pool.stats().physical_reads, 2u);  // the file read is deduped
  handles.pop_back();
  EXPECT_EQ(pool.pinned_frames(), 2u);  // ids[0] still pinned twice
}

TEST(BufferPoolTest, FetchManyErrorRetainsNoPins) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 2);
  BufferPool pool(&file, 0);

  std::vector<PageId> bad = {ids[0], static_cast<PageId>(9999), ids[1]};
  std::vector<PageHandle> handles;
  EXPECT_FALSE(pool.FetchMany(bad, &handles).ok());
  EXPECT_TRUE(handles.empty());
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, FetchManyOverflowsCapacityWhileBatchIsPinned) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 4);
  std::vector<PageId> three = {ids[0], ids[1], ids[2]};
  BufferPool pool(&file, 2);

  // All three pages are pinned simultaneously: the batch exceeds the
  // capacity target, so the last install is a counted pin overflow
  // rather than a batch failure.
  std::vector<PageHandle> handles;
  ASSERT_TRUE(pool.FetchMany(three, &handles).ok());
  EXPECT_EQ(handles.size(), 3u);
  for (const PageHandle& h : handles) EXPECT_TRUE(h.valid());
  EXPECT_EQ(pool.pinned_frames(), 3u);
  EXPECT_EQ(pool.stats().pin_overflows, 1u);
  // Releasing the batch lets the next demand miss drain the shard back
  // under its capacity target before installing.
  handles.clear();
  PageHandle h = pool.Fetch(ids[3]).ValueOrDie();
  EXPECT_LE(pool.cached_frames(), 2u);
}

TEST(BufferPoolTest, PrefetchFillsUnpinnedWithoutLogicalReads) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 3);
  BufferPool pool(&file, 0);
  file.ResetStats();

  pool.Prefetch(ids);
  // Frames are resident but unpinned; nothing counted as a logical access.
  EXPECT_EQ(pool.cached_frames(), 3u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  for (PageId id : ids) EXPECT_TRUE(pool.Cached(id));
  EXPECT_EQ(pool.stats().logical_reads, 0u);
  EXPECT_EQ(pool.stats().physical_reads, 3u);
  EXPECT_EQ(pool.stats().prefetch_issued, 3u);
  EXPECT_EQ(pool.stats().prefetch_hits, 0u);
  EXPECT_EQ(file.stats().batch_reads, 1u);
}

TEST(BufferPoolTest, PrefetchHitCountedOncePerPrefetchedFrame) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 2);
  BufferPool pool(&file, 0);
  pool.Prefetch(ids);
  file.ResetStats();

  {
    PageHandle h = pool.Fetch(ids[0]).ValueOrDie();
    EXPECT_EQ(h.data()[0], 1);
  }
  { PageHandle again = pool.Fetch(ids[0]).ValueOrDie(); }
  // The first pin of a prefetched frame is the hit; re-fetching it is an
  // ordinary cache hit.
  EXPECT_EQ(pool.stats().prefetch_hits, 1u);
  EXPECT_EQ(pool.stats().logical_reads, 2u);
  EXPECT_EQ(file.stats().physical_reads, 0u);  // prefetch already paid it
}

TEST(BufferPoolTest, PrefetchSkipsCachedPages) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 2);
  BufferPool pool(&file, 0);
  { PageHandle warm = pool.Fetch(ids[0]).ValueOrDie(); }
  pool.ResetStats();
  file.ResetStats();

  pool.Prefetch(ids);
  EXPECT_EQ(pool.stats().prefetch_issued, 1u);  // only the miss
  EXPECT_EQ(pool.stats().physical_reads, 1u);
  // Prefetching an all-cached batch is a no-op, not an empty ReadBatch.
  file.ResetStats();
  pool.ResetStats();
  pool.Prefetch(ids);
  EXPECT_EQ(pool.stats().prefetch_issued, 0u);
  EXPECT_EQ(file.stats().batch_reads, 0u);
}

TEST(BufferPoolTest, PrefetchNeverEvictsPinnedFrames) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 4);
  BufferPool pool(&file, 2);
  PageHandle a = pool.Fetch(ids[0]).ValueOrDie();
  PageHandle b = pool.Fetch(ids[1]).ValueOrDie();

  // Pool is full of pins: the prefetch reads are silently dropped.
  std::vector<PageId> rest = {ids[2], ids[3]};
  pool.Prefetch(rest);
  EXPECT_EQ(pool.cached_frames(), 2u);
  EXPECT_TRUE(pool.Cached(ids[0]));
  EXPECT_TRUE(pool.Cached(ids[1]));
  EXPECT_FALSE(pool.Cached(ids[2]));
  EXPECT_FALSE(pool.Cached(ids[3]));
  a.Release();
  b.Release();
  // With room again the same prefetch lands.
  pool.Prefetch(rest);
  EXPECT_TRUE(pool.Cached(ids[2]) || pool.Cached(ids[3]));
}

TEST(BufferPoolTest, FetchManyCountsPrefetchHits) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 2);
  BufferPool pool(&file, 0);
  pool.Prefetch(ids);
  file.ResetStats();

  std::vector<PageHandle> handles;
  ASSERT_TRUE(pool.FetchMany(ids, &handles).ok());
  EXPECT_EQ(pool.stats().prefetch_hits, 2u);
  EXPECT_EQ(file.stats().physical_reads, 0u);
}

TEST(BufferPoolTest, AsyncPrefetchFillsViaExecutor) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 3);
  BufferPool pool(&file, 0);
  ASSERT_TRUE(pool.SetConcurrentMode(true).ok());

  std::mutex mu;
  std::vector<std::thread> workers;
  pool.SetPrefetchExecutor([&](std::function<void()> fill) {
    std::lock_guard<std::mutex> g(mu);
    workers.emplace_back(std::move(fill));
    return true;
  });
  pool.Prefetch(ids);
  // Detaching blocks until the background fill has drained.
  pool.SetPrefetchExecutor(nullptr);
  for (auto& t : workers) t.join();

  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(pool.Cached(ids[i]));
    PageHandle h = pool.Fetch(ids[i]).ValueOrDie();
    EXPECT_EQ(h.data()[0], static_cast<uint8_t>(i + 1));
  }
  IoStats s = pool.StatsSnapshot();
  EXPECT_EQ(s.prefetch_issued, 3u);
  EXPECT_EQ(s.prefetch_hits, 3u);
  EXPECT_EQ(s.logical_reads, 3u);  // only the Fetches, never the fill
}

TEST(BufferPoolTest, FetchWaitsForInflightFillInsteadOfRereading) {
  MemPagedFile file(256);
  std::vector<PageId> ids = AllocStamped(file, 1);
  BufferPool pool(&file, 0);
  ASSERT_TRUE(pool.SetConcurrentMode(true).ok());

  // An executor that parks the fill instead of running it, so the page
  // stays in flight until this test chooses to complete it.
  std::function<void()> parked;
  pool.SetPrefetchExecutor([&](std::function<void()> fill) {
    parked = std::move(fill);
    return true;
  });
  pool.Prefetch(ids);
  ASSERT_TRUE(parked != nullptr);
  file.ResetStats();

  std::thread reader([&] {
    PageHandle h = pool.Fetch(ids[0]).ValueOrDie();
    EXPECT_EQ(h.data()[0], 1);
  });
  // Let the reader reach the in-flight wait, then complete the fill.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  parked();
  reader.join();
  // The reader reused the prefetched fill: exactly one physical read.
  EXPECT_EQ(file.stats().physical_reads, 1u);
  EXPECT_EQ(pool.StatsSnapshot().prefetch_hits, 1u);
  pool.SetPrefetchExecutor(nullptr);
}

TEST(BufferPoolTest, ConcurrentPrefetchAndFetchStress) {
  // TSAN target: readers fetch while background fills install frames.
  MemPagedFile file(256);
  const size_t kPages = 64;
  std::vector<PageId> ids = AllocStamped(file, kPages);
  BufferPool pool(&file, 32);
  ASSERT_TRUE(pool.SetConcurrentMode(true).ok());

  std::mutex mu;
  std::vector<std::thread> fills;
  pool.SetPrefetchExecutor([&](std::function<void()> fill) {
    std::lock_guard<std::mutex> g(mu);
    fills.emplace_back(std::move(fill));
    return true;
  });

  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      uint32_t state = 0x9e3779b9u * static_cast<uint32_t>(t + 1);
      for (int i = 0; i < kIters; ++i) {
        state = state * 1664525u + 1013904223u;
        const size_t base = state % kPages;
        PageId batch[4];
        for (size_t j = 0; j < 4; ++j) batch[j] = ids[(base + j) % kPages];
        if (i % 3 == 0) pool.Prefetch(batch);
        auto r = pool.Fetch(ids[(base + 2) % kPages]);
        ASSERT_TRUE(r.ok());
        PageHandle h = std::move(r).ValueOrDie();
        EXPECT_EQ(h.data()[0],
                  static_cast<uint8_t>(((base + 2) % kPages) + 1));
      }
    });
  }
  for (auto& t : readers) t.join();
  pool.SetPrefetchExecutor(nullptr);
  for (auto& t : fills) t.join();
  ASSERT_TRUE(pool.SetConcurrentMode(false).ok());

  // Every page still reads back correctly after the storm.
  for (size_t i = 0; i < kPages; ++i) {
    PageHandle h = pool.Fetch(ids[i]).ValueOrDie();
    EXPECT_EQ(h.data()[0], static_cast<uint8_t>(i + 1));
  }
}

// --- debug pin tracking ------------------------------------------------------

TEST(PinTrackingTest, AssertNoPinsOkWhenAllReleased) {
  MemPagedFile file(256);
  BufferPool pool(&file, 4);
  pool.SetPinTracking(true);
  PageId id;
  {
    PageHandle h = pool.New().ValueOrDie();
    id = h.id();
  }
  {
    PageHandle h = pool.Fetch(id).ValueOrDie();
  }
  EXPECT_TRUE(pool.AssertNoPins().ok());
}

TEST(PinTrackingTest, LeakIsAttributedToTheFetchCallSite) {
  MemPagedFile file(256);
  BufferPool pool(&file, 4);
  pool.SetPinTracking(true);
  PageId id;
  {
    PageHandle h = pool.New().ValueOrDie();
    id = h.id();
  }
  PageHandle leaked = pool.Fetch(id).ValueOrDie();  // held across the check
  Status s = pool.AssertNoPins();
  ASSERT_FALSE(s.ok());
  // The message must carry the pin count, this file, and the page id.
  EXPECT_NE(s.message().find("1 pin(s)"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("buffer_pool_test"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find(std::to_string(id)), std::string::npos)
      << s.ToString();
  leaked.Release();
  EXPECT_TRUE(pool.AssertNoPins().ok());
}

TEST(PinTrackingTest, FetchManyAndMovesKeepTheRegistryExact) {
  MemPagedFile file(256);
  BufferPool pool(&file, 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    PageHandle h = pool.New().ValueOrDie();
    ids.push_back(h.id());
  }
  pool.SetPinTracking(true);
  std::vector<PageHandle> handles;
  ASSERT_TRUE(pool.FetchMany(ids, &handles).ok());
  EXPECT_FALSE(pool.AssertNoPins().ok());
  // Moving a handle must transfer (not duplicate) its registration.
  PageHandle moved = std::move(handles[1]);
  handles.clear();
  Status s = pool.AssertNoPins();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("1 pin(s)"), std::string::npos) << s.ToString();
  moved.Release();
  EXPECT_TRUE(pool.AssertNoPins().ok());
}

TEST(PinTrackingTest, UntrackedLeakStillDetected) {
  MemPagedFile file(256);
  BufferPool pool(&file, 4);
  pool.SetPinTracking(false);
  PageHandle h = pool.New().ValueOrDie();
  Status s = pool.AssertNoPins();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("SetPinTracking"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace ht

// Unit tests for the LRU buffer pool.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <span>
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
  // Once pins release, the next demand miss drains the pool back to its
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
  BufferPool pool(&file, 0);
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

TEST(BufferPoolTest, FlushAllIsOneRoundTrip) {
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
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
  // Every dirty page goes out in one round trip for the whole pool, not
  // one per page.
  EXPECT_EQ(file.stats().writes, kPages);
  EXPECT_EQ(file.stats().batch_writes, 1u);
  for (size_t i = 0; i < kPages; ++i) {
    Page raw(256);
    ASSERT_TRUE(file.Read(ids[i], &raw).ok());
    EXPECT_EQ(raw.data()[0], static_cast<uint8_t>(i + 1));
  }
}

TEST(BufferPoolTest, ConcurrentReadersDuringFlushAll) {
  // TSAN target: FlushAll's collect-and-batch runs while reader threads
  // fetch the same pages. Readers never mark dirty, so the only contention
  // is the pool lock and LRU state.
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
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

  constexpr int kReaders = 8;
  constexpr int kFetches = 300000;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::thread resizer([&] {
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      // 8 frames for 48 pages: nearly every bounded fetch misses.
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
  const IoStats stats = pool.stats();
  EXPECT_EQ(stats.logical_reads, static_cast<uint64_t>(kReaders) * kFetches);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_TRUE(pool.AssertNoPins().ok());
}

TEST(BufferPoolTest, BoundedPoolStaysWithinCapacityUnderConcurrentReaders) {
  // One pool-wide eviction order: concurrent readers never push a bounded
  // pool past its capacity. Each reader holds at most one pin, so with 4
  // readers even 8 frames always leave an unpinned victim and no demand
  // fetch has to overflow.
  MemPagedFile file(256);
  constexpr size_t kPages = 48;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    ids.push_back(file.Allocate().ValueOrDie());
    Page p(file.page_size());
    std::memcpy(p.data(), &ids.back(), sizeof(PageId));  // stamp = own id
    ASSERT_TRUE(file.Write(ids.back(), p).ok());
  }
  for (const size_t capacity : {size_t{8}, size_t{20}}) {
    BufferPool pool(&file, 0);
    ASSERT_TRUE(pool.SetCapacity(capacity).ok());
    constexpr int kReaders = 4;
    constexpr int kFetches = 20000;
    std::atomic<int> wrong{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        uint32_t state = 0x9e3779b9u * static_cast<uint32_t>(t + 1);
        for (int i = 0; i < kFetches; ++i) {
          state = state * 1664525u + 1013904223u;
          const PageId id = ids[(state >> 16) % kPages];
          auto r = pool.Fetch(id);
          PageId stamp = kInvalidPageId;
          if (r.ok()) std::memcpy(&stamp, r->data(), sizeof(PageId));
          if (stamp != id) wrong.fetch_add(1);
        }
      });
    }
    for (auto& th : readers) th.join();

    EXPECT_EQ(wrong.load(), 0) << "capacity " << capacity;
    EXPECT_LE(pool.cached_frames(), capacity) << "capacity " << capacity;
    EXPECT_EQ(pool.stats().pin_overflows, 0u) << "capacity " << capacity;
    EXPECT_TRUE(pool.AssertNoPins().ok());
  }
}

// --- Prefetch ---------------------------------------------------------------

/// Allocates `n` pages directly in `file`, stamping page i's first byte
/// with `i + 1` so tests can verify contents after a prefetch or fetch.
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

/// Forwards to a base file, but holds ReadBatch calls until the test opens
/// the gate, so a test can act while a prefetch fill is inside its read.
class GatedReadBatchFile final : public PagedFile {
 public:
  explicit GatedReadBatchFile(PagedFile* base) : base_(base) {}

  /// Blocks until a ReadBatch call is waiting at the gate.
  void WaitUntilHeld() {
    std::unique_lock<std::mutex> g(mu_);
    cv_.wait(g, [this] { return held_; });
  }
  void OpenGate() {
    std::lock_guard<std::mutex> g(mu_);
    open_ = true;
    cv_.notify_all();
  }

  size_t page_size() const override { return base_->page_size(); }
  PageId page_count() const override { return base_->page_count(); }
  Status Read(PageId id, Page* out) override { return base_->Read(id, out); }
  Status ReadBatch(std::span<const PageId> ids,
                   std::span<Page* const> outs) override {
    {
      std::unique_lock<std::mutex> g(mu_);
      held_ = true;
      cv_.notify_all();
      cv_.wait(g, [this] { return open_; });
    }
    return base_->ReadBatch(ids, outs);
  }
  Status Write(PageId id, const Page& page) override {
    return base_->Write(id, page);
  }
  Status WriteBatch(std::span<const PageId> ids,
                    std::span<const Page* const> pages) override {
    return base_->WriteBatch(ids, pages);
  }
  Result<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }
  Status Sync() override { return base_->Sync(); }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  PagedFile* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool open_ = false;
};

TEST(BufferPoolTest, PrefetchFillThatLosesTheRaceDropsItsCopy) {
  // A demand fetch installs the page while a prefetch fill of the same
  // page is inside its read: the installed frame stays, the fill's copy
  // goes back to the free list, and only the installed read counts.
  MemPagedFile base(256);
  std::vector<PageId> ids = AllocStamped(base, 1);
  GatedReadBatchFile file(&base);
  BufferPool pool(&file, 0);
  file.ResetStats();

  std::thread prefetcher([&] { pool.Prefetch(ids); });
  file.WaitUntilHeld();
  {
    PageHandle h = pool.Fetch(ids[0]).ValueOrDie();
    EXPECT_EQ(h.data()[0], 1);
  }
  file.OpenGate();
  prefetcher.join();

  EXPECT_EQ(pool.cached_frames(), 1u);
  const IoStats s = pool.stats();
  EXPECT_EQ(s.prefetch_issued, 1u);
  EXPECT_EQ(s.prefetch_hits, 0u);
  EXPECT_EQ(s.physical_reads, 1u);  // the fill's dropped read is not counted
  EXPECT_EQ(file.stats().physical_reads, 2u);  // the file served both
  {
    PageHandle h = pool.Fetch(ids[0]).ValueOrDie();
    EXPECT_EQ(h.data()[0], 1);
  }
  EXPECT_EQ(pool.stats().prefetch_hits, 0u);
  EXPECT_TRUE(pool.AssertNoPins().ok());
}

TEST(BufferPoolTest, ConcurrentPrefetchAndFetchStress) {
  // TSAN target: readers prefetch and fetch while other readers' fills
  // install frames.
  MemPagedFile file(256);
  const size_t kPages = 64;
  std::vector<PageId> ids = AllocStamped(file, kPages);
  BufferPool pool(&file, 32);

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
  // At most 4 pins are held at once, so no demand fetch ever overflows and
  // the pool never exceeds its capacity.
  EXPECT_LE(pool.cached_frames(), 32u);
  EXPECT_EQ(pool.stats().pin_overflows, 0u);

  // Every page still reads back correctly after the storm.
  for (size_t i = 0; i < kPages; ++i) {
    PageHandle h = pool.Fetch(ids[i]).ValueOrDie();
    EXPECT_EQ(h.data()[0], static_cast<uint8_t>(i + 1));
  }
  EXPECT_TRUE(pool.AssertNoPins().ok());
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

TEST(PinTrackingTest, MovesKeepTheRegistryExact) {
  MemPagedFile file(256);
  BufferPool pool(&file, 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    PageHandle h = pool.New().ValueOrDie();
    ids.push_back(h.id());
  }
  pool.SetPinTracking(true);
  std::vector<PageHandle> handles;
  for (PageId id : ids) handles.push_back(pool.Fetch(id).ValueOrDie());
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

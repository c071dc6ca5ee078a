// Copyright 2026 The HybridTree Authors.
// BufferPool: pin-counted page cache over a PagedFile, with a choice of
// eviction policy (classic LRU, or a scan-resistant segmented LRU).
//
// All trees in the repository perform node I/O through a BufferPool. Every
// Fetch/New counts one *logical* read — the unit the paper plots as "disk
// accesses per query" (one random access per node visited). Pool misses
// additionally count physical reads on the backing file.
//
// Eviction policy. Two modes, fixed at construction:
//
//   * CachePolicy::kLru (the raw constructor's default): the classic
//     recency-only pool — behaviour and accounting are exactly the
//     pre-SLRU pool, byte for byte, which is what the paper-figure
//     benchmarks and the regression tests pin down.
//
//   * CachePolicy::kSlru (what every HybridTree pool uses, through
//     HybridTreeOptions::cache_policy): scan-resistant segmented LRU. The
//     pool keeps three lists — a PROBATIONARY segment (new admissions), a
//     PROTECTED segment (~80% of capacity, promoted on re-reference), and
//     a prefetch queue (prefetched-but-never-referenced fills) — plus a
//     small frequency sketch (aged 4-bit counters). Eviction order is
//     STALE prefetch-queue pages (prefetched before the newest batch and
//     still never referenced), then the probationary tail, then any
//     remaining prefetch fills, then — only when nothing else is left —
//     the protected tail; so speculative and one-touch pages go first
//     while the batch a traversal is just about to consume is spared.
//     Promotion is driven by the caller's access class
//     (below): a query-class re-reference promotes probation → protected;
//     scan/prefetch/ingest re-references promote only when the sketch says
//     the page is genuinely multi-touch. A query-class MISS whose sketch
//     count is already hot is admitted straight to protected (the page was
//     recently hot and got pushed out by a burst). Query results are
//     byte-identical under either policy — only physical I/O differs.
//
// Access classes: call sites tag their traffic by installing a
// thread-local AccessClassScope (kQuery is the untagged default; the tree
// tags ScanAll/ELS-rebuild/stats sweeps kScan and the mutation paths
// kIngest; prefetch fills are tagged internally). The class selects the
// SLRU admission rule above and splits the IoStats class_* counters.
//
// Threading model. Every pool is thread-safe: one pool-wide mutex (mu_)
// guards the recency lists, the free list, the frame arena, the frequency
// sketch and the prefetch generation. A bounded pool therefore keeps one
// exact global LRU/SLRU order under any number of threads, and never holds
// more frames than its capacity (a demand fetch exceeds it only while
// every resident frame is pinned; see EvictOneIfNeeded). A single-threaded
// caller sees exactly the classic pool the paper figures use; it merely
// takes uncontended locks. Backing-file reads (misses and prefetch fills)
// run under a SHARED file lock — pread/preadv are positional and
// thread-safe, so reads do not exclude each other; only
// allocation/extension, Free, and dirty write-back take the file lock
// exclusively.
//
// Frame index and pins. One PageTable (storage/page_table.h) maps page ids
// to frames and is read without a lock. A frame's pin count is atomic:
// a pin is a CAS from p >= 0 to p + 1, an unpin is one release fetch_sub,
// and eviction claims an unpinned victim with a CAS 0 -> -1 under the
// pool lock, so a pin and an eviction can never both win. Frames never
// move or get freed while the pool lives: an evicted frame goes on the
// free list (its page buffer released) and a later miss reuses it. A
// reader holding a stale frame pointer therefore at worst pins a frame
// that now holds another page, which the id re-check after the pin
// catches. Resident frames stay on their recency list while pinned; Fetch
// moves a frame to the MRU end and eviction skips pinned frames, so Unpin
// takes no lock.
//
// Hit path. A hit on a pool with capacity 0 (unbounded) takes no lock: a
// table load, the pin CAS, the id re-check and the counters. Such a pool
// evicts nothing by capacity, so recency has no reader and no list is
// spliced (a later SetCapacity that bounds it starts from the order the
// locked paths left). A bounded pool's hit, and the first hit on a
// prefetched frame (which charges the prefetch hit), take the pool lock
// and update the LRU/SLRU state exactly. Misses, admission and eviction
// always run under the pool lock, so the locked hits and misses of
// concurrent readers on a bounded pool serialise on it (DESIGN.md §6c).
//
// Counters. Every pool counter lives in per-thread stripes of relaxed
// atomics, each stripe on its own cache lines and chosen by the calling
// thread's number, so counting takes no lock and shares no line between
// threads that map to different stripes. stats() sums the stripes;
// logical-read accounting stays exact.
//
// Prefetching I/O (the cold-cache pipeline). Prefetch is a best-effort,
// NON-pinning fill on the calling thread: pages already cached are
// skipped, the rest are read in ONE PagedFile::ReadBatch round trip
// (DiskPagedFile coalesces adjacent pages into vectored preadv calls) and
// parked unpinned — at the LRU front (kLru) or on the dedicated prefetch
// queue (kSlru), where never-referenced fills are the FIRST eviction
// victims instead of aging out mid-LRU. The fill takes its frames under
// the pool lock, reads outside it, and installs under it again; a page
// another thread installed in the meantime keeps that frame and the
// fill's copy is dropped. Prefetch counts NO logical reads — prefetched
// fills are physical reads only, so the paper's figure-of-merit (logical
// accesses) is byte-identical with prefetch on or off. prefetch_issued /
// prefetch_hits / batch_reads counters expose pipeline effectiveness; a
// Fetch that lands on a prefetched frame counts one prefetch_hit (first
// pin only).
//
// Capacity is adjustable at runtime (SetCapacity), safe against concurrent
// fetches — this is the hook CacheManager (storage/cache_manager.h) uses
// to rebalance one global memory budget across many pools.
//
// The intended usage protocol is shared-read / exclusive-write (see
// core/hybrid_tree.h): any number of threads may Fetch/Release
// concurrently, but mutation (MarkDirty, New, Free) requires the caller to
// hold exclusive access to the index.
//
// Per-worker accounting: a worker thread may install a thread-local
// IoStatsScope; while it is alive, every pool operation performed by that
// thread is additionally counted into the scope's sink. This is how the
// serving layer attributes I/O to individual scatter tasks and tenants.

#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <source_location>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/io_stats.h"
#include "storage/page_table.h"
#include "storage/paged_file.h"

namespace ht {

class BufferPool;

namespace internal {

/// Which SLRU list a frame belongs to while unpinned (kLru keeps every
/// frame in kProbation, which aliases the single LRU list).
enum class CacheSegment : uint8_t {
  kProbation = 0,
  kProtected = 1,
  kPrefetchQueue = 2,
};

/// One cached page. Heap-allocated, address-stable and never freed while
/// the pool lives (see the threading model above), so pinned handles and
/// the frame table can keep direct pointers.
struct PageFrame {
  Page page;
  /// Pin count. -1 marks a frame claimed by eviction or parked on a free
  /// list; a pin only succeeds from a count >= 0.
  std::atomic<int> pins{-1};
  /// The page this frame holds. Written before the frame's pin count is
  /// released for a new page; a lock-free pin re-checks it (acquire).
  std::atomic<PageId> id{kInvalidPageId};
  /// Set when the frame was filled by Prefetch and not yet pinned; the
  /// first Fetch that pins it takes the locked path, counts one
  /// prefetch_hit and clears this.
  std::atomic<bool> prefetched{false};
  /// Written by writers under the exclusive half of the tree contract;
  /// read by write-back under the pool lock.
  bool dirty = false;
  // Everything below is guarded by the pool lock (BufferPool::mu_).
  /// Links in the segment list (FrameList) the frame is on.
  PageFrame* prev = nullptr;
  PageFrame* next = nullptr;
  /// Pool prefetch generation at fill time (prefetch-queue frames only):
  /// once a NEWER batch has landed in the pool, a still-unreferenced fill
  /// is stale and becomes the first eviction victim. Fresh fills — the
  /// batch the current traversal is about to consume — are spared until
  /// probation is exhausted.
  uint64_t fill_gen = 0;
  /// Segment list the frame is on.
  CacheSegment segment = CacheSegment::kProbation;
  /// Class of the access that admitted the frame (kPrefetch until a
  /// prefetched frame's first real reference); evictions are charged here.
  AccessClass admit_class = AccessClass::kQuery;
  explicit PageFrame(size_t page_size) : page(page_size) {}
};

/// Intrusive doubly linked list of frames; front = most recently used.
class FrameList {
 public:
  size_t size() const { return size_; }
  PageFrame* front() const { return head_; }
  PageFrame* back() const { return tail_; }

  void PushFront(PageFrame* f) {
    f->prev = nullptr;
    f->next = head_;
    (head_ != nullptr ? head_->prev : tail_) = f;
    head_ = f;
    ++size_;
  }
  void Remove(PageFrame* f) {
    (f->prev != nullptr ? f->prev->next : head_) = f->next;
    (f->next != nullptr ? f->next->prev : tail_) = f->prev;
    f->prev = nullptr;
    f->next = nullptr;
    --size_;
  }

 private:
  PageFrame* head_ = nullptr;
  PageFrame* tail_ = nullptr;
  size_t size_ = 0;
};

}  // namespace internal

/// RAII pin on a buffered page. While a handle is alive the frame cannot be
/// evicted. Call MarkDirty() after mutating data(). The handle caches the
/// frame pointer, so data()/MarkDirty() are lock-free.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { MoveFrom(other); }
  PageHandle& operator=(PageHandle&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  ~PageHandle() { Release(); }
  HT_DISALLOW_COPY_AND_ASSIGN(PageHandle);

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  uint8_t* data() {
    HT_DCHECK(valid());
    return frame_->page.data();
  }
  const uint8_t* data() const {
    HT_DCHECK(valid());
    return frame_->page.data();
  }
  size_t size() const;
  /// Requires exclusive access to the index (writers only; see the
  /// threading model above).
  void MarkDirty() {
    HT_DCHECK(valid());
    frame_->dirty = true;
  }

  /// Drops the pin early (before destruction).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, PageId id, internal::PageFrame* frame,
             uint64_t pin_token = 0)
      : pool_(pool), frame_(frame), id_(id), pin_token_(pin_token) {}
  void MoveFrom(PageHandle& other) {
    pool_ = other.pool_;
    frame_ = other.frame_;
    id_ = other.id_;
    pin_token_ = other.pin_token_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
    other.id_ = kInvalidPageId;
    other.pin_token_ = 0;
  }

  BufferPool* pool_ = nullptr;
  internal::PageFrame* frame_ = nullptr;
  PageId id_ = kInvalidPageId;
  /// Debug pin-tracking registry key; 0 when tracking was off at pin time.
  uint64_t pin_token_ = 0;
};

/// Installs a thread-local IoStats sink for the calling thread: while the
/// scope is alive, every BufferPool operation this thread performs is also
/// counted into `*sink` (in addition to the pool's own counters). Scopes
/// nest; destruction restores the previous sink.
class IoStatsScope {
 public:
  explicit IoStatsScope(IoStats* sink);
  ~IoStatsScope();
  HT_DISALLOW_COPY_AND_ASSIGN(IoStatsScope);

 private:
  IoStats* prev_;
};

/// Tags the calling thread's buffer-pool traffic with an access class for
/// the scope's lifetime (see the file comment; kQuery is the untagged
/// default). Scopes nest; destruction restores the previous class.
class AccessClassScope {
 public:
  explicit AccessClassScope(AccessClass cls);
  ~AccessClassScope();
  HT_DISALLOW_COPY_AND_ASSIGN(AccessClassScope);

 private:
  AccessClass prev_;
};

/// The calling thread's current access class (kQuery with no scope alive).
AccessClass CurrentAccessClass();

/// Pin-counted page cache (policy + threading model in the file comment).
class BufferPool {
 public:
  /// `capacity_pages` of 0 means unbounded (everything stays cached, still
  /// counting logical reads — the configuration the benchmarks use, since
  /// the figure-of-merit is access counts, not cache behaviour). A nonzero
  /// capacity bounds the whole pool's resident frames, in one global
  /// eviction order, from any number of threads. The policy is fixed for
  /// the pool's lifetime; kLru is only this constructor's default (every
  /// HybridTree pool takes HybridTreeOptions::cache_policy, kSlru).
  BufferPool(PagedFile* file, size_t capacity_pages,
             CachePolicy policy = CachePolicy::kLru);
  ~BufferPool();
  HT_DISALLOW_COPY_AND_ASSIGN(BufferPool);

  CachePolicy policy() const { return policy_; }
  /// Current capacity target in pages (0 = unbounded).
  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Retargets the pool's capacity at runtime (the CacheManager rebalance
  /// hook). Safe against concurrent Fetch/Release traffic: growth takes
  /// effect lazily, shrinking evicts unpinned frames immediately (pinned
  /// overage drains as pins release and later misses evict down to the new
  /// target). 0 = unbounded.
  Status SetCapacity(size_t capacity_pages);

  /// Fetches and pins page `id`. The defaulted source_location captures
  /// the caller for debug pin-leak attribution (see SetPinTracking); it
  /// costs nothing while tracking is off.
  Result<PageHandle> Fetch(
      PageId id,
      std::source_location loc = std::source_location::current());

  /// Best-effort, non-pinning prefetch on the calling thread: pages
  /// already cached are skipped; the remaining misses are read in one
  /// batch and inserted unpinned, tagged as prefetched (kSlru parks them
  /// on the evict-first prefetch queue). Counts NO logical reads (fills
  /// are physical reads only) and never evicts a pinned frame — pages that
  /// don't fit are silently dropped, as are read errors (the later Fetch
  /// will surface them).
  void Prefetch(std::span<const PageId> ids);

  /// True if page `id` currently has a frame (pinned or not). A lock-free,
  /// point-in-time probe — the answer can be stale by the time the caller
  /// acts on it — used to gate prefetch batching (only batch when the next
  /// fetch would miss anyway). Counts nothing.
  bool Cached(PageId id) const;

  /// Allocates a new page, pins it, and marks it dirty (so the zeroed or
  /// caller-filled image reaches the file on eviction/flush).
  Result<PageHandle> New(
      std::source_location loc = std::source_location::current());

  /// Frees page `id`; it must be unpinned. Drops any cached frame.
  Status Free(PageId id);

  /// Writes all dirty frames back to the file. Batched: the pool's whole
  /// dirty set goes out in ONE PagedFile::WriteBatch round trip
  /// (DiskPagedFile coalesces adjacent pages into vectored pwritev; a
  /// single dirty frame degrades to a plain Write) under the exclusive
  /// file lock, instead of one Write per frame.
  Status FlushAll();

  /// FlushAll minus one page: used by HybridTree::Flush to make every
  /// tree page durable BEFORE the metadata page is written, so a torn
  /// flush can never install a new root over missing pages.
  Status FlushAllExcept(PageId skip);

  /// Writes back a single page's frame if it is cached and dirty (no-op
  /// otherwise). The second phase of the ordered flush.
  Status FlushPage(PageId id);

  /// Drops every unpinned frame (writing back dirty ones via the batched
  /// FlushAll). Used by the harness to make each query cold.
  Status EvictAll();

  size_t page_size() const { return file_->page_size(); }
  PagedFile* file() { return file_; }

  /// Charges one search's scan tally (scan_points, quant_refined,
  /// quant_pruned and quant_skipped_pages; see ScanTally) to the pool's
  /// counters and the thread-local IoStatsScope sink, like any other pool
  /// operation. Takes no lock.
  void CountScans(const ScanTally& tally);

  /// Sum of the counter stripes, by value. Safe from any thread, also
  /// while other threads use the pool (each counter is then read at some
  /// point during the call).
  IoStats stats() const;
  void ResetStats();

  /// Point-in-time cache gauges for metrics export. capacity_pages is the
  /// current TARGET (what SetCapacity last applied; 0 = unbounded) and
  /// cached_pages the current occupancy — they diverge transiently while
  /// pinned frames hold a shrink above target. Pinned frames stay on their
  /// segment list, so the three segment sizes sum to cached_pages.
  struct CacheSnapshot {
    CachePolicy policy = CachePolicy::kLru;
    size_t capacity_pages = 0;
    size_t cached_pages = 0;
    size_t pinned_pages = 0;
    size_t probation_pages = 0;
    size_t protected_pages = 0;
    size_t prefetch_queue_pages = 0;
    /// Cumulative counters (the same totals as stats()).
    IoStats stats;
  };
  CacheSnapshot SnapshotCache() const;

  /// Number of frames currently cached (for tests).
  size_t cached_frames() const;
  /// Number of currently pinned frames (for tests).
  size_t pinned_frames() const;

  // --- debug pin tracking (leak attribution) -------------------------------
  // Every search/insert/delete must release all pins it takes; a leaked pin
  // wedges eviction of its frame forever. With tracking ON, each pin
  // records the source location of the Fetch/New that created it, and
  // AssertNoPins attributes outstanding pins to those call sites.
  // Tracking defaults to ON in HT_DEBUG_VALIDATE builds and OFF otherwise
  // (the hot path then pays one relaxed atomic load per pin).

  /// Enables/disables pin tracking. Flip only while no frame is pinned and
  /// no other thread is inside the pool.
  void SetPinTracking(bool on);
  bool pin_tracking() const {
    return pin_tracking_.load(std::memory_order_relaxed);
  }

  /// OK iff no frame is pinned. Otherwise an Internal error naming every
  /// outstanding pin — with file:line:function attribution when tracking
  /// was on at pin time — so the leaking call site is identified directly
  /// from the failure message.
  Status AssertNoPins() const;

 private:
  friend class PageHandle;

  using Frame = internal::PageFrame;
  using FrameList = internal::FrameList;
  using CacheSegment = internal::CacheSegment;

  /// Frequency sketch: aged counters (256 buckets, saturating at
  /// kSketchMax, halved every ~16x-capacity accesses). A count >=
  /// kSketchPromote marks a page as multi-touch for the admission and
  /// promotion rules in the file comment.
  static constexpr size_t kSketchSize = 256;
  static constexpr uint8_t kSketchMax = 15;
  static constexpr uint8_t kSketchPromote = 3;

  /// One stripe of the pool counters: an IoStats updated only through
  /// relaxed std::atomic_ref operations, alone on its cache lines.
  struct alignas(64) StatStripe {
    IoStats io;
  };
  static constexpr size_t kStatStripes = 16;

  /// The list a frame in `segment` lives on (always lru_ under kLru).
  FrameList& ListFor(CacheSegment segment) HT_REQUIRES(mu_) {
    switch (segment) {
      case CacheSegment::kProtected:
        return protected_lru_;
      case CacheSegment::kPrefetchQueue:
        return prefetch_queue_;
      case CacheSegment::kProbation:
        break;
    }
    return lru_;
  }
  /// Number of resident frames (pinned or not).
  size_t ResidentLocked() const HT_REQUIRES(mu_) {
    return lru_.size() + protected_lru_.size() + prefetch_queue_.size();
  }
  /// Calls fn(frame) for every resident frame.
  template <typename Fn>
  void ForEachResident(Fn&& fn) const HT_REQUIRES(mu_) {
    for (const FrameList* list : {&lru_, &protected_lru_, &prefetch_queue_}) {
      for (Frame* f = list->front(); f != nullptr;) {
        Frame* next = f->next;  // fn may unlink f
        fn(f);
        f = next;
      }
    }
  }

  /// Adds `n` to one counter in the calling thread's stripe and in its
  /// IoStatsScope sink, if any. Lock-free.
  void Count(uint64_t IoStats::*counter, uint64_t n = 1);
  /// Same for one access class's slot of a per-class counter array.
  void CountClass(std::array<uint64_t, kNumAccessClasses> IoStats::*counters,
                  size_t cls);

  /// The lock-free hit (unbounded pools only): pins the frame holding
  /// `id`, or returns nullptr when the caller must take the locked path
  /// (capacity bounded, page not resident, frame being evicted or reused,
  /// or a prefetched frame's first hit).
  Frame* TryPinUnlocked(PageId id);
  void Unpin(Frame* f);
  /// Registers a live pin in the tracking registry; returns the token the
  /// handle must carry (0 when tracking is off).
  uint64_t TrackPin(PageId id, const std::source_location& loc);
  void UntrackPin(uint64_t token);

  /// A frame for a new page: a recycled one from the free list or a fresh
  /// allocation, with a zeroed page buffer and pins == -1, so no lock-free
  /// reader can pin it until Install publishes it.
  Frame* AcquireFrameLocked() HT_REQUIRES(mu_);
  /// Parks a claimed frame (pins == -1, on no list, out of the table) on
  /// the free list and releases its page buffer.
  void RecycleFrameLocked(Frame* f) HT_REQUIRES(mu_);
  /// Makes an acquired frame the resident frame of `id` with `pins` pins
  /// (0 or 1): links it at the front of its segment list and publishes it
  /// in the frame table. The caller has set segment/admit_class/dirty.
  void InstallLocked(PageId id, Frame* f, int pins) HT_REQUIRES(mu_);
  /// Links `f` at the MRU end of its segment's list, then (kSlru) demotes
  /// the protected tail while that segment is over budget.
  void LinkFrontLocked(Frame* f) HT_REQUIRES(mu_);
  /// Claims the least recently used unpinned frame of `list` (CAS 0 -> -1)
  /// that `eligible` accepts; the walk stops at the first unpinned frame
  /// `eligible` rejects. Returns nullptr when there is none.
  template <typename Eligible>
  static Frame* ClaimFromTail(const FrameList& list, Eligible&& eligible);

  /// Ages + bumps the sketch counter for `id`; returns the new count.
  /// kSlru only.
  uint8_t SketchTouch(PageId id) HT_REQUIRES(mu_);
  /// Protected-segment budget (~80% of the capacity; 0 = unbounded pool,
  /// no budget enforced).
  size_t ProtectedCapacity() const;
  /// The locked hit: pins `f` (the resident frame of `id`), then does the
  /// prefetch_hit accounting, the SLRU promotion rules and the move to the
  /// MRU end of the frame's (new) segment list.
  void PinHitLocked(PageId id, Frame* f) HT_REQUIRES(mu_);
  /// Admission segment for a freshly missed page (kSlru: sketch-hot
  /// query-class misses go straight to protected). Touches the sketch.
  CacheSegment AdmitSegmentLocked(PageId id) HT_REQUIRES(mu_);
  /// Demotes the protected tail into probation until the segment fits its
  /// budget.
  void EnforceProtectedCapLocked() HT_REQUIRES(mu_);
  /// Evicts down to the capacity (at most one eviction in steady state).
  /// When every resident frame is pinned, `demand` decides the outcome:
  /// demand fetches admit the new frame over capacity (counted in
  /// pin_overflows; the loop drains the pool back to target once pins
  /// release) so concurrent queries never fail on transient pin
  /// saturation, while speculative fills (demand=false) report
  /// ResourceExhausted and the caller drops the page.
  Status EvictOneIfNeeded(bool demand) HT_REQUIRES(mu_);
  /// Evicts one unpinned frame in policy order (kSlru: stale prefetch
  /// fills, then probation, then the rest of the prefetch queue, then
  /// protected; kLru: the LRU tail), charging the eviction to the victim's
  /// admitting class.
  Status EvictVictimLocked() HT_REQUIRES(mu_);
  /// Unlinks a claimed frame from its list and the frame table and parks
  /// it on the free list.
  void DropClaimedLocked(Frame* f) HT_REQUIRES(mu_);
  /// Writes one dirty frame back. Callers hold the pool lock, so this
  /// takes the file lock in pool -> file order (rank table in
  /// common/lock_rank.h).
  Status WriteBack(PageId id, Frame* f);

  /// Reads `ids` (all distinct, none cached at issue time) in one batch
  /// outside the pool lock and installs the frames unpinned +
  /// prefetch-tagged; an id another thread installed during the read keeps
  /// that frame, and the fill's copy goes back to the free list.
  void FillPrefetch(std::span<const PageId> ids);

  PagedFile* file_;
  const CachePolicy policy_;
  /// Capacity target. Atomic so SetCapacity can retarget while fetches
  /// run; readers load relaxed (a stale target only delays, never
  /// corrupts, a resize — and a hit that still sees 0 after a shrink
  /// merely skips one recency update).
  std::atomic<size_t> capacity_;

  /// Guards the lists, free list, frame arena, sketch and prefetch
  /// generation below, and the recency fields of every resident frame
  /// (see internal::PageFrame).
  mutable Mutex mu_{LockRank::kPool, "BufferPool::mu_"};
  /// Probationary segment in kSlru; the ONLY list in kLru. Every resident
  /// frame, pinned or not, is on exactly one of the three lists.
  FrameList lru_ HT_GUARDED_BY(mu_);
  /// Protected segment (kSlru only): frames promoted on re-reference.
  FrameList protected_lru_ HT_GUARDED_BY(mu_);
  /// Prefetched-but-never-referenced fills (kSlru only): first victims.
  FrameList prefetch_queue_ HT_GUARDED_BY(mu_);
  /// Evicted frames (pins == -1, page buffer released), reused by later
  /// misses before any new frame is allocated.
  std::vector<Frame*> free_frames_ HT_GUARDED_BY(mu_);
  /// Every frame the pool ever allocated; freed only by the destructor,
  /// so a stale frame pointer never dangles.
  std::vector<std::unique_ptr<Frame>> owned_ HT_GUARDED_BY(mu_);
  /// Frequency sketch (kSlru only; see the constants above).
  std::array<uint8_t, kSketchSize> sketch_ HT_GUARDED_BY(mu_){};
  uint64_t sketch_ops_ HT_GUARDED_BY(mu_) = 0;
  /// Bumped once per prefetch batch that installs a fill; compared
  /// against PageFrame::fill_gen to age out abandoned prefetches.
  uint64_t prefetch_gen_ HT_GUARDED_BY(mu_) = 0;
  /// Page id -> resident frame. Written only under mu_; read by the
  /// lock-free hit and by Cached().
  PageTable<Frame> table_;
  mutable std::array<StatStripe, kStatStripes> stripes_{};
  /// File-access ordering lock: miss reads and prefetch fills hold it
  /// SHARED (positional reads are thread-safe and may overlap each
  /// other); allocation/extension, Free, and dirty write-back hold it
  /// EXCLUSIVE so they never overlap a read of the same file. It orders
  /// OPERATIONS, not data — file_ itself is a const pointer and metadata
  /// reads like page_size() are lock-free — so no field is GUARDED_BY it;
  /// the capability still participates in the analysis through the scoped
  /// guards and in the rank order (pool -> file).
  mutable SharedMutex file_mu_{LockRank::kPoolFile, "BufferPool::file_mu_"};

  /// Debug pin tracking (see SetPinTracking). Token -> pin site for every
  /// live pin taken while tracking was on. pin_mu_ is a leaf lock: it may
  /// be acquired while mu_ is held, and nothing is ever acquired under it.
  struct PinSite {
    PageId page;
    const char* file;
    unsigned line;
    const char* function;
  };
  /// Relaxed: the tracking flag is flipped only between operations (a pin
  /// that races the flip is simply not attributed), and the token counter
  /// only needs uniqueness, not ordering.
  std::atomic<bool> pin_tracking_{false};
  std::atomic<uint64_t> next_pin_token_{1};
  mutable Mutex pin_mu_{LockRank::kPoolPinTable, "BufferPool::pin_mu_"};
  std::unordered_map<uint64_t, PinSite> live_pins_ HT_GUARDED_BY(pin_mu_);
};

}  // namespace ht

#include "storage/buffer_pool.h"

#include <algorithm>
#include <map>
#include <string>

namespace ht {

namespace {
/// Thread-local per-worker accounting sink (see IoStatsScope).
thread_local IoStats* g_tls_io_sink = nullptr;
/// Thread-local access class for the calling thread (see AccessClassScope).
thread_local AccessClass g_tls_access_class = AccessClass::kQuery;

/// The calling thread's number, assigned on its first count: picks the
/// counter stripe. Relaxed: the numbers only need to be distinct.
size_t ThreadNumber() {
  static std::atomic<size_t> next{0};
  thread_local const size_t mine = next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

/// Calls fn(a.x, b.x) for every counter x of IoStats, scalar and per-class.
template <typename Fn>
void ForEachCounterPair(IoStats& a, IoStats& b, Fn fn) {
#define HT_IO_STATS_PAIR(name) fn(a.name, b.name);
  HT_IO_STATS_COUNTERS(HT_IO_STATS_PAIR)
#undef HT_IO_STATS_PAIR
  for (size_t c = 0; c < kNumAccessClasses; ++c) {
    fn(a.class_hits[c], b.class_hits[c]);
    fn(a.class_misses[c], b.class_misses[c]);
    fn(a.class_evictions[c], b.class_evictions[c]);
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// IoStatsScope / AccessClassScope
// ---------------------------------------------------------------------------

IoStatsScope::IoStatsScope(IoStats* sink) : prev_(g_tls_io_sink) {
  g_tls_io_sink = sink;
}

IoStatsScope::~IoStatsScope() { g_tls_io_sink = prev_; }

AccessClassScope::AccessClassScope(AccessClass cls)
    : prev_(g_tls_access_class) {
  g_tls_access_class = cls;
}

AccessClassScope::~AccessClassScope() { g_tls_access_class = prev_; }

AccessClass CurrentAccessClass() { return g_tls_access_class; }

// ---------------------------------------------------------------------------
// PageHandle
// ---------------------------------------------------------------------------

size_t PageHandle::size() const {
  HT_DCHECK(valid());
  return pool_->page_size();
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    if (pin_token_ != 0) pool_->UntrackPin(pin_token_);
    pool_ = nullptr;
    frame_ = nullptr;
    id_ = kInvalidPageId;
    pin_token_ = 0;
  }
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool::BufferPool(PagedFile* file, size_t capacity_pages,
                       CachePolicy policy)
    : file_(file),
      policy_(policy),
      capacity_(capacity_pages),
      shard_capacity_(capacity_pages) {
#ifdef HT_DEBUG_VALIDATE
  pin_tracking_.store(true, std::memory_order_relaxed);
#endif
}

BufferPool::~BufferPool() {
  DrainPrefetch();
  // Best effort write-back; durability requires an explicit FlushAll.
  (void)FlushAll();
}

void BufferPool::Count(uint64_t IoStats::*counter, uint64_t n) {
  IoStats& stripe = stripes_[ThreadNumber() % kStatStripes].io;
  std::atomic_ref<uint64_t>(stripe.*counter)
      .fetch_add(n, std::memory_order_relaxed);
  if (IoStats* tls = g_tls_io_sink) tls->*counter += n;
}

void BufferPool::CountClass(
    std::array<uint64_t, kNumAccessClasses> IoStats::*counters, size_t cls) {
  IoStats& stripe = stripes_[ThreadNumber() % kStatStripes].io;
  std::atomic_ref<uint64_t>((stripe.*counters)[cls])
      .fetch_add(1, std::memory_order_relaxed);
  if (IoStats* tls = g_tls_io_sink) ++(tls->*counters)[cls];
}

Status BufferPool::SetConcurrentMode(bool on) {
  if (on == concurrent_) return Status::OK();
  DrainPrefetch();
  if (pinned_frames() != 0) {
    return Status::InvalidArgument(
        "BufferPool mode switch requires no pinned frames");
  }
  // Collect every resident frame (least recent first, per segment) and
  // every free frame, flip the mode, and re-bucket under the new
  // ShardIndex mapping. Pushing each frame to the front in that order
  // keeps the recency order within each segment of each new shard. Frame
  // ownership stays with the allocating shard; only list membership moves.
  std::vector<Frame*> resident;
  std::vector<Frame*> spare;
  for (Shard& s : shards_) {
    // Mode switches require quiescence (no other thread inside the pool),
    // so the guard claims the shard capability without locking.
    MutexLock lock(&s.mu, /*enabled=*/false);
    for (FrameList* list : {&s.lru, &s.protected_lru, &s.prefetch_queue}) {
      while (Frame* f = list->back()) {
        list->Remove(f);
        resident.push_back(f);
      }
    }
    spare.insert(spare.end(), s.free_frames.begin(), s.free_frames.end());
    s.free_frames.clear();
  }
  concurrent_ = on;
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  shard_capacity_.store(
      concurrent_ ? (cap == 0 ? 0 : (cap + kShardCount - 1) / kShardCount)
                  : cap,
      std::memory_order_relaxed);
  for (Frame* f : resident) {
    Shard& s = ShardFor(f->id.load(std::memory_order_relaxed));
    MutexLock lock(&s.mu, /*enabled=*/false);  // same quiescence contract
    ListFor(s, f->segment).PushFront(f);
  }
  for (size_t i = 0; i < spare.size(); ++i) {
    Shard& s = shards_[concurrent_ ? i % kShardCount : 0];
    MutexLock lock(&s.mu, /*enabled=*/false);
    s.free_frames.push_back(spare[i]);
  }
  return Status::OK();
}

Status BufferPool::SetCapacity(size_t capacity_pages) {
  // Relaxed store: the capacity target is advisory — each reader acts on
  // whatever value it observes under its own shard lock, and a stale
  // target only delays (never corrupts) the resize.
  capacity_.store(capacity_pages, std::memory_order_relaxed);
  const size_t per_shard =
      concurrent_ ? (capacity_pages == 0
                         ? 0
                         : (capacity_pages + kShardCount - 1) / kShardCount)
                  : capacity_pages;
  shard_capacity_.store(per_shard, std::memory_order_relaxed);
  if (per_shard == 0) return Status::OK();
  // Best-effort shrink: evict unpinned frames down to the new target. A
  // pinned overage is left in place — it drains as pins release and later
  // misses evict down to target (EvictOneIfNeeded loops while over).
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    while (ResidentLocked(shard) > per_shard) {
      if (!EvictVictimLocked(shard).ok()) break;  // everything left is pinned
    }
  }
  return Status::OK();
}

uint8_t BufferPool::SketchTouch(Shard& shard, PageId id) {
  // Age first (halving every ~16x-capacity touches keeps the counters a
  // sliding-window frequency estimate, TinyLFU-style), THEN bump. The
  // sketch itself is plain shard state under the shard lock; only the
  // capacity target is atomic (relaxed: stale values merely shift the
  // halving period).
  const size_t cap = shard_capacity_.load(std::memory_order_relaxed);
  const uint64_t halve_period =
      cap == 0 ? 4096 : std::max<uint64_t>(64, 16 * static_cast<uint64_t>(cap));
  if (++shard.sketch_ops >= halve_period) {
    shard.sketch_ops = 0;
    for (uint8_t& c : shard.sketch) c = static_cast<uint8_t>(c >> 1);
  }
  uint8_t& ctr =
      shard.sketch[(static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> 56];
  if (ctr < kSketchMax) ++ctr;
  return ctr;
}

size_t BufferPool::ProtectedCapacity() const {
  const size_t cap = shard_capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return 0;  // unbounded pool: no budget enforced
  // Keep a probationary floor of ~20% of the shard (at least one frame) so
  // new admissions always have somewhere to live without displacing the
  // protected set; the rest is the protected budget.
  const size_t probation_floor = std::max<size_t>(1, cap / 5);
  return cap > probation_floor ? cap - probation_floor : 0;
}

void BufferPool::EnforceProtectedCapLocked(Shard& shard) {
  if (shard_capacity_.load(std::memory_order_relaxed) == 0) return;
  const size_t cap = ProtectedCapacity();
  while (shard.protected_lru.size() > cap) {
    // Demote the protected tail to the probationary MRU position: it gets
    // one more chance to be re-referenced before reaching the LRU tail.
    Frame* tail = shard.protected_lru.back();
    shard.protected_lru.Remove(tail);
    tail->segment = CacheSegment::kProbation;
    shard.lru.PushFront(tail);
  }
}

void BufferPool::LinkFrontLocked(Shard& shard, Frame* f) {
  ListFor(shard, f->segment).PushFront(f);
  if (policy_ == CachePolicy::kSlru && f->segment == CacheSegment::kProtected) {
    EnforceProtectedCapLocked(shard);
  }
}

void BufferPool::PinHitLocked(Shard& shard, PageId id, Frame* f) {
  // Relaxed: the shard lock orders this pin after the frame's install, and
  // no eviction of this page can run while the lock is held, so the count
  // is >= 0 here.
  f->pins.fetch_add(1, std::memory_order_relaxed);
  const AccessClass cls = CurrentAccessClass();
  if (f->prefetched.load(std::memory_order_relaxed)) {
    f->prefetched.store(false, std::memory_order_relaxed);
    f->admit_class = cls;  // first demand reference re-attributes the frame
    Count(&IoStats::prefetch_hits);
  }
  ListFor(shard, f->segment).Remove(f);
  if (policy_ == CachePolicy::kSlru) {
    const uint8_t freq = SketchTouch(shard, id);
    if (f->segment == CacheSegment::kPrefetchQueue) {
      // First demand reference to a prefetched frame: plain admission into
      // probation — one touch is not yet evidence of reuse.
      f->segment = CacheSegment::kProbation;
    } else if (f->segment == CacheSegment::kProbation &&
               (cls == AccessClass::kQuery || freq >= kSketchPromote)) {
      // Re-reference promotes: always for query traffic, only with sketch
      // evidence of multi-touch for scan/prefetch/ingest traffic, so a
      // repeated full scan cannot flood the protected segment.
      f->segment = CacheSegment::kProtected;
    }
  }
  LinkFrontLocked(shard, f);
}

internal::CacheSegment BufferPool::AdmitSegmentLocked(Shard& shard,
                                                      PageId id) {
  if (policy_ != CachePolicy::kSlru) return CacheSegment::kProbation;
  const uint8_t freq = SketchTouch(shard, id);
  if (CurrentAccessClass() == AccessClass::kQuery && freq >= kSketchPromote) {
    // A recently-hot page that a burst pushed out: readmit straight to
    // protected instead of making it climb out of probation again.
    return CacheSegment::kProtected;
  }
  return CacheSegment::kProbation;
}

BufferPool::Frame* BufferPool::AcquireFrameLocked(Shard& shard) {
  if (shard.free_frames.empty()) {
    shard.owned.push_back(std::make_unique<Frame>(file_->page_size()));
    return shard.owned.back().get();
  }
  Frame* f = shard.free_frames.back();
  shard.free_frames.pop_back();
  f->page = Page(file_->page_size());
  return f;
}

void BufferPool::RecycleFrameLocked(Shard& shard, Frame* f) {
  f->page.Release();
  shard.free_frames.push_back(f);
}

void BufferPool::InstallLocked(Shard& shard, PageId id, Frame* f, int pins) {
  // Relaxed field stores, then the release store of the pin count: a
  // lock-free reader whose pin CAS reads this count (or a later one)
  // synchronizes with it and sees the new id, flag and page bytes.
  f->id.store(id, std::memory_order_relaxed);
  f->pins.store(pins, std::memory_order_release);
  LinkFrontLocked(shard, f);
  table_.Store(id, f);
}

BufferPool::Frame* BufferPool::TryPinUnlocked(PageId id) {
  if (shard_capacity_.load(std::memory_order_relaxed) != 0) return nullptr;
  Frame* f = table_.Load(id);
  if (f == nullptr) return nullptr;
  // Pin CAS: from p >= 0 only, so a frame claimed by eviction (-1) is
  // never pinned. Acquire pairs with the release that last set the count
  // (an install, or an unpin continuing its release sequence).
  int p = f->pins.load(std::memory_order_relaxed);
  do {
    if (p < 0) return nullptr;
  } while (!f->pins.compare_exchange_weak(p, p + 1, std::memory_order_acquire,
                                          std::memory_order_relaxed));
  // The frame may have been evicted and reused for another page between
  // the table load and the pin: re-check which page it holds now that it
  // cannot move. A prefetched frame's first hit goes the locked way.
  if (f->id.load(std::memory_order_acquire) == id &&
      !f->prefetched.load(std::memory_order_relaxed)) {
    return f;
  }
  Unpin(f);
  return nullptr;
}

Result<PageHandle> BufferPool::Fetch(PageId id, std::source_location loc) {
  const size_t cls = static_cast<size_t>(CurrentAccessClass());
  Count(&IoStats::logical_reads);
  if (Frame* f = TryPinUnlocked(id)) {
    CountClass(&IoStats::class_hits, cls);
    return PageHandle(this, id, f, TrackPin(id, loc));
  }
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu, concurrent_);
  bool checked_inflight = false;
  for (;;) {
    if (Frame* f = table_.Load(id)) {
      CountClass(&IoStats::class_hits, cls);
      PinHitLocked(shard, id, f);
      return PageHandle(this, id, f, TrackPin(id, loc));
    }
    // Miss. If an async prefetch of this page is in flight, wait for the
    // fill instead of issuing a duplicate read, then re-check the table.
    // The atomic fast path keeps the no-prefetch miss free of prefetch_mu_
    // traffic; the guard also keeps serial mode (claimed, unlocked shard
    // guard) out of the unlock/relock dance. The dance runs at most once:
    // the shard lock is dropped during it, so the table MUST be re-checked
    // afterwards (a racing Fetch/fill may have installed the frame in the
    // window — installing a duplicate would dangle the returned pin), and
    // the one-shot guard keeps a busy in-flight set elsewhere in the pool
    // from looping this fetch forever.
    //
    // Memory order: acquire pairs with the release increments in
    // Prefetch/FillPrefetch, so a nonzero observation happens-after the
    // inflight_ insert it reflects. The gate is only an optimization
    // either way — the authoritative membership check runs under
    // prefetch_mu_, and a stale zero just means this fetch reads the page
    // itself (the fill detects the installed frame and drops its copy).
    if (concurrent_ && !checked_inflight &&
        inflight_count_.load(std::memory_order_acquire) > 0) {
      checked_inflight = true;
      lock.Unlock();
      {
        MutexLock pl(&prefetch_mu_);
        while (inflight_.count(id) != 0) {
          prefetch_cv_.Wait(pl);
        }
      }
      lock.Lock();
      // The fill installed the frame (retry finds it) or dropped it
      // (no room / read error: retry falls through to a normal miss).
      continue;
    }
    break;
  }
  CountClass(&IoStats::class_misses, cls);
  HT_RETURN_NOT_OK(EvictOneIfNeeded(shard, /*demand=*/true));
  Frame* f = AcquireFrameLocked(shard);
  Status read_status;
  {
    // Shared lock: positional reads run concurrently with each other and
    // only exclude allocation/extension and write-back.
    ReaderLock flock(&file_mu_, concurrent_);
    read_status = file_->Read(id, &f->page);
  }
  if (!read_status.ok()) {
    RecycleFrameLocked(shard, f);
    return read_status;
  }
  Count(&IoStats::physical_reads);
  f->dirty = false;
  f->prefetched.store(false, std::memory_order_relaxed);
  f->admit_class = CurrentAccessClass();
  f->segment = AdmitSegmentLocked(shard, id);
  InstallLocked(shard, id, f, /*pins=*/1);
  return PageHandle(this, id, f, TrackPin(id, loc));
}

Status BufferPool::FetchMany(std::span<const PageId> ids,
                             std::vector<PageHandle>* out,
                             std::source_location loc) {
  out->clear();
  if (ids.empty()) return Status::OK();
  out->reserve(ids.size());
  const size_t cls = static_cast<size_t>(CurrentAccessClass());

  // Pass 1: pin hits, leave placeholder handles for misses, and take one
  // frame for each distinct missing id (ReadBatch tolerates duplicates,
  // but a duplicate here would install two frames for one page). A taken
  // frame has pins == -1 and is in no table slot, so nothing else can
  // touch it while the batch read fills it outside every lock.
  std::vector<PageId> miss_ids;
  std::vector<Frame*> miss_frames;
  std::vector<Page*> miss_pages;
  std::unordered_map<PageId, size_t> miss_slot;  // id -> index in miss_*
  for (PageId id : ids) {
    Count(&IoStats::logical_reads);
    Shard& shard = ShardFor(id);
    MutexLock lock(&shard.mu, concurrent_);
    if (Frame* f = table_.Load(id)) {
      CountClass(&IoStats::class_hits, cls);
      PinHitLocked(shard, id, f);
      out->push_back(PageHandle(this, id, f, TrackPin(id, loc)));
    } else {
      CountClass(&IoStats::class_misses, cls);
      out->push_back(PageHandle());
      if (miss_slot.emplace(id, miss_ids.size()).second) {
        miss_ids.push_back(id);
        miss_frames.push_back(AcquireFrameLocked(shard));
        miss_pages.push_back(&miss_frames.back()->page);
      }
    }
  }
  if (miss_ids.empty()) return Status::OK();

  // Hands every frame still owned by this call back to its shard.
  const auto recycle_unused = [&] {
    for (size_t i = 0; i < miss_ids.size(); ++i) {
      if (miss_frames[i] == nullptr) continue;
      Shard& shard = ShardFor(miss_ids[i]);
      MutexLock lock(&shard.mu, concurrent_);
      RecycleFrameLocked(shard, miss_frames[i]);
    }
  };

  // One round trip for every miss.
  Status read_status;
  {
    ReaderLock flock(&file_mu_, concurrent_);
    read_status = file_->ReadBatch(miss_ids, miss_pages);
  }
  if (!read_status.ok()) {
    out->clear();  // releases every pass-1 pin
    recycle_unused();
    return read_status;
  }
  Count(&IoStats::batch_reads);

  // Pass 2: install each miss (first occurrence) and pin every occurrence.
  // A frame may already be present — installed by an earlier duplicate in
  // this very batch, or by a racing Fetch/prefetch fill — in which case the
  // existing frame wins and our read is discarded.
  for (size_t i = 0; i < ids.size(); ++i) {
    if ((*out)[i].valid()) continue;
    const PageId id = ids[i];
    Shard& shard = ShardFor(id);
    MutexLock lock(&shard.mu, concurrent_);
    Frame* f = table_.Load(id);
    if (f != nullptr) {
      f->pins.fetch_add(1, std::memory_order_relaxed);  // see PinHitLocked
      // Pinned through us, not through a prior hit: no prefetch_hit.
      f->prefetched.store(false, std::memory_order_relaxed);
      ListFor(shard, f->segment).Remove(f);
      if (f->segment == CacheSegment::kPrefetchQueue) {
        // First demand reference to a prefetched frame: admit to probation
        // and attribute it to this batch's class.
        f->segment = CacheSegment::kProbation;
        f->admit_class = CurrentAccessClass();
      }
      LinkFrontLocked(shard, f);
    } else {
      Status evict_status = EvictOneIfNeeded(shard, /*demand=*/true);
      if (!evict_status.ok()) {
        lock.Unlock();  // recycle_unused() re-locks shards
        out->clear();
        recycle_unused();
        return evict_status;
      }
      Count(&IoStats::physical_reads);
      const size_t slot = miss_slot.find(id)->second;
      f = miss_frames[slot];
      HT_CHECK(f != nullptr);
      miss_frames[slot] = nullptr;  // installed: no longer ours to recycle
      f->dirty = false;
      f->prefetched.store(false, std::memory_order_relaxed);
      f->admit_class = CurrentAccessClass();
      f->segment = AdmitSegmentLocked(shard, id);
      InstallLocked(shard, id, f, /*pins=*/1);
    }
    (*out)[i] = PageHandle(this, id, f, TrackPin(id, loc));
  }
  recycle_unused();  // reads that lost to a racing install
  return Status::OK();
}

void BufferPool::Prefetch(std::span<const PageId> ids) {
  if (ids.empty()) return;
  // Filter: keep each id once, and only if not already cached. Linear
  // dedup — prefetch batches are a handful of pages (the frontier depth).
  std::vector<PageId> need;
  need.reserve(ids.size());
  for (PageId id : ids) {
    if (std::find(need.begin(), need.end(), id) != need.end()) continue;
    if (Cached(id)) continue;
    need.push_back(id);
  }
  if (need.empty()) return;

  bool async = false;
  if (concurrent_ && async_exec_) {
    MutexLock pl(&prefetch_mu_);
    need.erase(std::remove_if(need.begin(), need.end(),
                              [this](PageId id) HT_REQUIRES(prefetch_mu_) {
                                return inflight_.count(id) != 0;
                              }),
               need.end());
    if (need.empty()) return;
    inflight_.insert(need.begin(), need.end());
    // Release pairs with the acquire gate in Fetch: a fetch observing the
    // new count happens-after these inserts (see the Fetch comment).
    inflight_count_.fetch_add(need.size(), std::memory_order_release);
    async = true;
  }

  Count(&IoStats::prefetch_issued, need.size());

  if (async) {
    std::vector<PageId> task_ids = need;
    const bool accepted =
        async_exec_([this, ids2 = std::move(task_ids)]() mutable {
          FillPrefetch(std::move(ids2), /*async=*/true);
        });
    // Executor refused (e.g. saturated queue): fill on this thread, still
    // clearing the inflight marks we just planted.
    if (!accepted) FillPrefetch(std::move(need), /*async=*/true);
  } else {
    FillPrefetch(std::move(need), /*async=*/false);
  }
}

void BufferPool::FillPrefetch(std::vector<PageId> ids, bool async) {
  // Frames are taken (pins == -1, unpublished) before the batch read, which
  // then fills them outside every lock.
  std::vector<Frame*> frames(ids.size());
  std::vector<Page*> pages(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    Shard& shard = ShardFor(ids[i]);
    MutexLock lock(&shard.mu, concurrent_);
    frames[i] = AcquireFrameLocked(shard);
    pages[i] = &frames[i]->page;
  }
  Status read_status;
  {
    ReaderLock flock(&file_mu_, concurrent_);
    read_status = file_->ReadBatch(ids, pages);
  }
  // Read errors are swallowed: prefetch is best-effort, and the Fetch that
  // actually needs the page will surface the error.
  if (read_status.ok()) Count(&IoStats::batch_reads);
  // Each batch advances its shards' prefetch generation (once per shard
  // per call, BEFORE the first install evicts): leftovers from older
  // batches become stale and are reclaimed first to make room, while
  // this batch's own fills are spared until the next one lands.
  std::array<bool, kShardCount> bumped{};
  for (size_t i = 0; i < ids.size(); ++i) {
    const PageId id = ids[i];
    Shard& shard = ShardFor(id);
    MutexLock lock(&shard.mu, concurrent_);
    Frame* f = frames[i];
    // Drop the fill on a read error, when a racing fetch installed the
    // page first, or — speculative fills never overflow a pinned-full
    // shard — when there is no room; demand re-reads it if it is needed.
    if (!read_status.ok() || table_.Load(id) != nullptr) {
      RecycleFrameLocked(shard, f);
      continue;
    }
    if (policy_ == CachePolicy::kSlru && !bumped[ShardIndex(id)]) {
      bumped[ShardIndex(id)] = true;
      ++shard.prefetch_gen;
    }
    if (!EvictOneIfNeeded(shard, /*demand=*/false).ok()) {
      RecycleFrameLocked(shard, f);
      continue;
    }
    Count(&IoStats::physical_reads);
    f->dirty = false;
    f->prefetched.store(true, std::memory_order_relaxed);
    f->admit_class = AccessClass::kPrefetch;
    // kSlru parks never-referenced fills on the evict-first prefetch
    // queue; kLru keeps the historical LRU-front insertion.
    if (policy_ == CachePolicy::kSlru) {
      f->segment = CacheSegment::kPrefetchQueue;
      f->fill_gen = shard.prefetch_gen;
    } else {
      f->segment = CacheSegment::kProbation;
    }
    InstallLocked(shard, id, f, /*pins=*/0);
  }
  if (async) {
    // Clear the in-flight marks only after every shard lock is released
    // (lock order: prefetch_mu_ never follows a shard lock) and notify
    // both Fetch waiters and DrainPrefetch. The notify happens under the
    // lock on purpose: once a drainer (e.g. the destructor) re-acquires
    // prefetch_mu_ and sees inflight_ empty, this thread is provably done
    // touching the condition variable, so tearing the pool down is safe.
    MutexLock pl(&prefetch_mu_);
    for (PageId id : ids) inflight_.erase(id);
    // Release for the same acquire pairing as the fetch_add in Prefetch.
    inflight_count_.fetch_sub(ids.size(), std::memory_order_release);
    prefetch_cv_.NotifyAll();
  }
}

bool BufferPool::Cached(PageId id) const { return table_.Load(id) != nullptr; }

void BufferPool::DrainPrefetch() {
  MutexLock pl(&prefetch_mu_);
  while (!inflight_.empty()) prefetch_cv_.Wait(pl);
}

void BufferPool::SetPrefetchExecutor(AsyncExec exec) {
  // Quiesce before swapping so no in-flight task outlives its executor's
  // guarantees (detaching is documented to block until fills drain).
  DrainPrefetch();
  async_exec_ = std::move(exec);
}

Result<PageHandle> BufferPool::New(std::source_location loc) {
  PageId id;
  {
    WriterLock flock(&file_mu_, concurrent_);
    HT_ASSIGN_OR_RETURN(id, file_->Allocate());
  }
  Count(&IoStats::allocations);
  Count(&IoStats::logical_reads);  // a new node still costs one access
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu, concurrent_);
  HT_RETURN_NOT_OK(EvictOneIfNeeded(shard, /*demand=*/true));
  Frame* f = AcquireFrameLocked(shard);  // zeroed page image
  f->dirty = true;
  f->prefetched.store(false, std::memory_order_relaxed);
  // Fresh pages enter probation regardless of policy: the page has never
  // been referenced, so there is no reuse evidence yet.
  f->admit_class = CurrentAccessClass();
  f->segment = CacheSegment::kProbation;
  InstallLocked(shard, id, f, /*pins=*/1);
  return PageHandle(this, id, f, TrackPin(id, loc));
}

Status BufferPool::Free(PageId id) {
  Shard& shard = ShardFor(id);
  {
    MutexLock lock(&shard.mu, concurrent_);
    if (Frame* f = table_.Load(id)) {
      int unpinned = 0;
      if (!f->pins.compare_exchange_strong(unpinned, -1,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
        return Status::InvalidArgument("BufferPool::Free of pinned page " +
                                       std::to_string(id));
      }
      DropClaimedLocked(shard, f);
    }
    Count(&IoStats::frees);
  }
  WriterLock flock(&file_mu_, concurrent_);
  return file_->Free(id);
}

void BufferPool::Unpin(Frame* f) {
  // Release pairs with the acquire of the eviction claim (CAS 0 -> -1):
  // everything this pin's holder read happens before the frame is reused.
  const int before = f->pins.fetch_sub(1, std::memory_order_release);
  HT_CHECK(before > 0);
}

Status BufferPool::EvictOneIfNeeded(Shard& shard, bool demand) {
  const size_t cap = shard_capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return Status::OK();
  // Loops only after a capacity shrink (or a pin overflow, below) left the
  // shard over target; at a fixed capacity this evicts at most one frame,
  // exactly like classic LRU.
  while (ResidentLocked(shard) >= cap) {
    Status s = EvictVictimLocked(shard);
    if (s.ok()) continue;
    if (demand && s.IsResourceExhausted()) {
      // Every resident frame is pinned by an in-flight query. A demand
      // fetch must not fail on that transient state — concurrent workers
      // would see spurious ResourceExhausted whenever their pins happen
      // to overlap — so admit the frame over capacity and let this very
      // loop evict back down to target once pins release.
      Count(&IoStats::pin_overflows);
      return Status::OK();
    }
    return s;
  }
  return Status::OK();
}

template <typename Eligible>
BufferPool::Frame* BufferPool::ClaimFromTail(const FrameList& list,
                                             Eligible&& eligible) {
  for (Frame* f = list.back(); f != nullptr; f = f->prev) {
    int unpinned = 0;
    if (f->pins.load(std::memory_order_relaxed) != unpinned) continue;
    if (!eligible(f)) return nullptr;
    // Acquire pairs with the release unpins: the last readers' accesses
    // to the page happen before it is written back or reused. A pin that
    // wins the race leaves the CAS failed and the frame in place.
    if (f->pins.compare_exchange_strong(unpinned, -1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      return f;
    }
  }
  return nullptr;
}

Status BufferPool::EvictVictimLocked(Shard& shard) {
  // Victim order under kSlru: STALE prefetch fills first (prefetched
  // before the shard's newest batch and still never referenced —
  // abandoned speculation), then the probationary tail, then any
  // remaining prefetch fills, then (only when nothing else is left) the
  // protected tail. The staleness gate matters: the batch a traversal
  // just issued is about to be consumed, and evicting it to make room
  // for the next demand miss would waste the batched read AND force a
  // blocking re-read. kLru keeps the single-list recency order. Pinned
  // frames stay on their lists and are skipped.
  const auto any = [](const Frame*) { return true; };
  Frame* victim = nullptr;
  if (policy_ == CachePolicy::kSlru) {
    const uint64_t gen = shard.prefetch_gen;
    victim = ClaimFromTail(shard.prefetch_queue,
                           [gen](const Frame* f) { return f->fill_gen < gen; });
    if (victim == nullptr) victim = ClaimFromTail(shard.lru, any);
    if (victim == nullptr) victim = ClaimFromTail(shard.prefetch_queue, any);
    if (victim == nullptr) victim = ClaimFromTail(shard.protected_lru, any);
  } else {
    victim = ClaimFromTail(shard.lru, any);
  }
  if (victim == nullptr) {
    return Status::ResourceExhausted("buffer pool full and all pages pinned");
  }
  const Status written =
      WriteBack(victim->id.load(std::memory_order_relaxed), victim);
  if (!written.ok()) {
    victim->pins.store(0, std::memory_order_release);  // stays resident
    return written;
  }
  const size_t cls = static_cast<size_t>(victim->admit_class);
  DropClaimedLocked(shard, victim);
  Count(&IoStats::evictions);
  CountClass(&IoStats::class_evictions, cls);
  return Status::OK();
}

void BufferPool::DropClaimedLocked(Shard& shard, Frame* f) {
  ListFor(shard, f->segment).Remove(f);
  (void)table_.Take(f->id.load(std::memory_order_relaxed));
  RecycleFrameLocked(shard, f);
}

Status BufferPool::WriteBack(PageId id, Frame* f) {
  if (f->dirty) {
    {
      WriterLock flock(&file_mu_, concurrent_);
      HT_RETURN_NOT_OK(file_->Write(id, f->page));
    }
    Count(&IoStats::writes);
    f->dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushShardLocked(Shard& shard, PageId skip) {
  // Collect the dirty set under the shard lock (frames cannot be evicted
  // while the lock is held), then issue ONE batched round trip. A
  // singleton set degrades to a plain Write — no duplicate scan, no iovec
  // setup — via the existing WriteBack path.
  std::vector<PageId> ids;
  std::vector<const Page*> pages;
  std::vector<Frame*> dirty;
  ForEachResident(shard, [&](Frame* f) {
    const PageId id = f->id.load(std::memory_order_relaxed);
    if (!f->dirty || id == skip) return;
    ids.push_back(id);
    pages.push_back(&f->page);
    dirty.push_back(f);
  });
  if (ids.empty()) return Status::OK();
  if (ids.size() == 1) return WriteBack(ids[0], dirty[0]);
  {
    WriterLock flock(&file_mu_, concurrent_);
    HT_RETURN_NOT_OK(file_->WriteBatch(ids, pages));
  }
  // Clear dirty flags only after the whole batch succeeded; on error the
  // frames stay dirty and a retry re-sends them.
  for (Frame* f : dirty) f->dirty = false;
  Count(&IoStats::writes, ids.size());
  Count(&IoStats::batch_writes);
  return Status::OK();
}

Status BufferPool::FlushAll() { return FlushAllExcept(kInvalidPageId); }

Status BufferPool::FlushAllExcept(PageId skip) {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    HT_RETURN_NOT_OK(FlushShardLocked(shard, skip));
  }
  return Status::OK();
}

Status BufferPool::FlushPage(PageId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu, concurrent_);
  Frame* f = table_.Load(id);
  if (f == nullptr) return Status::OK();
  return WriteBack(id, f);
}

Status BufferPool::EvictAll() {
  // Finish any in-flight prefetch first: a fill landing after the sweep
  // would silently warm a cache the caller just made cold.
  DrainPrefetch();
  HT_RETURN_NOT_OK(FlushAll());
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    std::vector<Frame*> claimed;
    ForEachResident(shard, [&claimed](Frame* f) {
      int unpinned = 0;
      if (f->pins.compare_exchange_strong(unpinned, -1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        claimed.push_back(f);
      }
    });
    for (Frame* f : claimed) DropClaimedLocked(shard, f);
  }
  return Status::OK();
}

void BufferPool::CountScan(uint64_t rows, uint64_t survivors, bool filtered) {
  Count(&IoStats::scan_points, rows);
  if (filtered) {
    Count(&IoStats::quant_refined, survivors);
    Count(&IoStats::quant_pruned, rows - survivors);
  }
}

const IoStats& BufferPool::stats() const {
  agg_stats_ = StatsSnapshot();
  return agg_stats_;
}

IoStats BufferPool::StatsSnapshot() const {
  IoStats total;
  for (StatStripe& stripe : stripes_) {
    ForEachCounterPair(total, stripe.io, [](uint64_t& sum, uint64_t& c) {
      sum += std::atomic_ref<uint64_t>(c).load(std::memory_order_relaxed);
    });
  }
  return total;
}

void BufferPool::ResetStats() {
  for (StatStripe& stripe : stripes_) {
    ForEachCounterPair(stripe.io, stripe.io, [](uint64_t& c, uint64_t&) {
      std::atomic_ref<uint64_t>(c).store(0, std::memory_order_relaxed);
    });
  }
}

BufferPool::CacheSnapshot BufferPool::SnapshotCache() const {
  CacheSnapshot snap;
  snap.policy = policy_;
  snap.capacity_pages = capacity_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    snap.probation_pages += shard.lru.size();
    snap.protected_pages += shard.protected_lru.size();
    snap.prefetch_queue_pages += shard.prefetch_queue.size();
    ForEachResident(shard, [&](const Frame* f) {
      if (f->pins.load(std::memory_order_relaxed) > 0) ++snap.pinned_pages;
    });
  }
  snap.cached_pages =
      snap.probation_pages + snap.protected_pages + snap.prefetch_queue_pages;
  snap.stats = StatsSnapshot();
  return snap;
}

size_t BufferPool::cached_frames() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    n += ResidentLocked(shard);
  }
  return n;
}

size_t BufferPool::pinned_frames() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    ForEachResident(shard, [&](const Frame* f) {
      if (f->pins.load(std::memory_order_relaxed) > 0) ++n;
    });
  }
  return n;
}

// ---------------------------------------------------------------------------
// Debug pin tracking
// ---------------------------------------------------------------------------

void BufferPool::SetPinTracking(bool on) {
  {
    MutexLock lk(&pin_mu_);
    live_pins_.clear();
  }
  // Relaxed: the flag is flipped only at quiescence (documented contract);
  // pin paths need atomicity, not ordering, to read it.
  pin_tracking_.store(on, std::memory_order_relaxed);
}

uint64_t BufferPool::TrackPin(PageId id, const std::source_location& loc) {
  if (!pin_tracking_.load(std::memory_order_relaxed)) return 0;
  // Relaxed fetch_add: tokens only need to be unique, not ordered.
  const uint64_t token =
      next_pin_token_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lk(&pin_mu_);
  live_pins_.emplace(token,
                     PinSite{id, loc.file_name(), loc.line(),
                             loc.function_name()});
  return token;
}

void BufferPool::UntrackPin(uint64_t token) {
  MutexLock lk(&pin_mu_);
  live_pins_.erase(token);
}

Status BufferPool::AssertNoPins() const {
  // Count pins under the shard locks first; pin_mu_ is a leaf lock, so the
  // attribution pass runs after every shard lock is released.
  uint64_t total_pins = 0;
  uint64_t frames = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    ForEachResident(shard, [&](const Frame* f) {
      const int pins = f->pins.load(std::memory_order_relaxed);
      if (pins > 0) {
        ++frames;
        total_pins += static_cast<uint64_t>(pins);
      }
    });
  }
  if (total_pins == 0) return Status::OK();

  std::string msg = "buffer pool pin leak: " + std::to_string(total_pins) +
                    " pin(s) on " + std::to_string(frames) + " frame(s)";
  if (pin_tracking_.load(std::memory_order_relaxed)) {
    // Group live registrations by call site for attribution.
    std::map<std::string, std::pair<uint64_t, std::string>> by_site;
    MutexLock lk(&pin_mu_);
    for (const auto& [token, site] : live_pins_) {
      std::string key = std::string(site.file) + ":" +
                        std::to_string(site.line) + " (" + site.function + ")";
      auto& slot = by_site[key];
      ++slot.first;
      if (!slot.second.empty()) slot.second += ",";
      slot.second += std::to_string(site.page);
    }
    for (const auto& [site, info] : by_site) {
      msg += "\n  " + std::to_string(info.first) + " pin(s) from " + site +
             " on page(s) [" + info.second + "]";
    }
  } else {
    msg += " (enable SetPinTracking for call-site attribution)";
  }
  return Status::Internal(std::move(msg));
}

}  // namespace ht

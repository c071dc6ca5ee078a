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
    pool_->Unpin(id_, frame_);
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

Status BufferPool::SetConcurrentMode(bool on) {
  if (on == concurrent_) return Status::OK();
  DrainPrefetch();
  if (pinned_frames() != 0) {
    return Status::InvalidArgument(
        "BufferPool mode switch requires no pinned frames");
  }
  // Collect every cached frame, flip the mode, and re-bucket under the new
  // ShardIndex mapping. Recency within each segment is rebuilt arbitrarily;
  // recency order across a mode switch is not meaningful anyway. Segment
  // membership (probation/protected/prefetch-queue) is preserved.
  std::unordered_map<PageId, std::unique_ptr<Frame>> all;
  for (Shard& s : shards_) {
    // Mode switches require quiescence (no other thread inside the pool),
    // so the guard claims the shard capability without locking.
    MutexLock lock(&s.mu, /*enabled=*/false);
    for (auto& [id, f] : s.frames) {
      if (f->in_lru) {
        ListFor(s, f->segment).erase(f->lru_it);
        f->in_lru = false;
      }
      all.emplace(id, std::move(f));
    }
    s.frames.clear();
    s.lru.clear();
    s.protected_lru.clear();
    s.prefetch_queue.clear();
  }
  concurrent_ = on;
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  shard_capacity_.store(
      concurrent_ ? (cap == 0 ? 0 : (cap + kShardCount - 1) / kShardCount)
                  : cap,
      std::memory_order_relaxed);
  for (auto& [id, f] : all) {
    Shard& s = ShardFor(id);
    MutexLock lock(&s.mu, /*enabled=*/false);  // same quiescence contract
    std::list<PageId>& list = ListFor(s, f->segment);
    list.push_front(id);
    f->lru_it = list.begin();
    f->in_lru = true;
    s.frames.emplace(id, std::move(f));
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
    while (shard.frames.size() > per_shard) {
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
    auto tail = std::prev(shard.protected_lru.end());
    Frame* f = shard.frames.find(*tail)->second.get();
    f->segment = CacheSegment::kProbation;
    shard.lru.splice(shard.lru.begin(), shard.protected_lru, tail);
    // splice moves the node intact, so f->lru_it (== tail) stays valid and
    // now points into shard.lru.
  }
}

void BufferPool::TouchHitLocked(Shard& shard, PageId id, Frame* f) {
  const AccessClass cls = CurrentAccessClass();
  if (f->prefetched) {
    f->prefetched = false;
    f->admit_class = cls;  // first demand reference re-attributes the frame
    ++shard.stats.prefetch_hits;
    if (IoStats* tls = g_tls_io_sink) ++tls->prefetch_hits;
  }
  if (f->in_lru) {
    // Splice out of the frame's CURRENT segment list (before any segment
    // change below), recycling the node for a later unpin.
    std::list<PageId>& list = ListFor(shard, f->segment);
    shard.lru_spares.splice(shard.lru_spares.begin(), list, f->lru_it);
    f->in_lru = false;
  }
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

Result<PageHandle> BufferPool::Fetch(PageId id, std::source_location loc) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu, concurrent_);
  const size_t cls = static_cast<size_t>(CurrentAccessClass());
  ++shard.stats.logical_reads;
  if (IoStats* tls = g_tls_io_sink) ++tls->logical_reads;
  bool checked_inflight = false;
  for (;;) {
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      Frame* f = it->second.get();
      ++shard.stats.class_hits[cls];
      if (IoStats* tls = g_tls_io_sink) ++tls->class_hits[cls];
      TouchHitLocked(shard, id, f);
      ++f->pins;
      return PageHandle(this, id, f, TrackPin(id, loc));
    }
    // Miss. If an async prefetch of this page is in flight, wait for the
    // fill instead of issuing a duplicate read, then re-check the map.
    // The atomic fast path keeps the no-prefetch miss free of prefetch_mu_
    // traffic; the guard also keeps serial mode (claimed, unlocked shard
    // guard) out of the unlock/relock dance. The dance runs at most once:
    // the shard lock is dropped during it, so the map MUST be re-checked
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
  ++shard.stats.class_misses[cls];
  if (IoStats* tls = g_tls_io_sink) ++tls->class_misses[cls];
  HT_RETURN_NOT_OK(EvictOneIfNeeded(shard, /*demand=*/true));
  auto frame = std::make_unique<Frame>(file_->page_size());
  {
    // Shared lock: positional reads run concurrently with each other and
    // only exclude allocation/extension and write-back.
    ReaderLock flock(&file_mu_, concurrent_);
    HT_RETURN_NOT_OK(file_->Read(id, &frame->page));
  }
  ++shard.stats.physical_reads;
  if (IoStats* tls = g_tls_io_sink) ++tls->physical_reads;
  Frame* f = frame.get();
  f->pins = 1;
  f->admit_class = CurrentAccessClass();
  f->segment = AdmitSegmentLocked(shard, id);
  shard.frames.emplace(id, std::move(frame));
  return PageHandle(this, id, f, TrackPin(id, loc));
}

Status BufferPool::FetchMany(std::span<const PageId> ids,
                             std::vector<PageHandle>* out,
                             std::source_location loc) {
  out->clear();
  if (ids.empty()) return Status::OK();
  out->reserve(ids.size());
  const size_t cls = static_cast<size_t>(CurrentAccessClass());

  // Pass 1: pin hits, leave placeholder handles for misses, and collect
  // each distinct missing id once (ReadBatch tolerates duplicates, but a
  // duplicate here would install two frames for one page).
  std::vector<PageId> miss_ids;
  std::vector<std::unique_ptr<Frame>> miss_frames;
  std::vector<Page*> miss_pages;
  std::unordered_map<PageId, size_t> miss_slot;  // id -> index in miss_*
  for (PageId id : ids) {
    Shard& shard = ShardFor(id);
    MutexLock lock(&shard.mu, concurrent_);
    ++shard.stats.logical_reads;
    if (IoStats* tls = g_tls_io_sink) ++tls->logical_reads;
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      Frame* f = it->second.get();
      ++shard.stats.class_hits[cls];
      if (IoStats* tls = g_tls_io_sink) ++tls->class_hits[cls];
      TouchHitLocked(shard, id, f);
      ++f->pins;
      out->push_back(PageHandle(this, id, f, TrackPin(id, loc)));
    } else {
      ++shard.stats.class_misses[cls];
      if (IoStats* tls = g_tls_io_sink) ++tls->class_misses[cls];
      out->push_back(PageHandle());
      if (miss_slot.emplace(id, miss_ids.size()).second) {
        miss_ids.push_back(id);
        auto frame = std::make_unique<Frame>(file_->page_size());
        miss_pages.push_back(&frame->page);
        miss_frames.push_back(std::move(frame));
      }
    }
  }
  if (miss_ids.empty()) return Status::OK();

  // One round trip for every miss.
  Status read_status;
  {
    ReaderLock flock(&file_mu_, concurrent_);
    read_status = file_->ReadBatch(miss_ids, miss_pages);
  }
  if (!read_status.ok()) {
    out->clear();  // releases every pass-1 pin
    return read_status;
  }
  {
    Shard& shard = ShardFor(miss_ids[0]);
    MutexLock lock(&shard.mu, concurrent_);
    ++shard.stats.batch_reads;
    if (IoStats* tls = g_tls_io_sink) ++tls->batch_reads;
  }

  // Pass 2: install each miss (first occurrence) and pin every occurrence.
  // A frame may already be present — installed by an earlier duplicate in
  // this very batch, or by a racing Fetch/prefetch fill — in which case the
  // existing frame wins and our read is discarded.
  for (size_t i = 0; i < ids.size(); ++i) {
    if ((*out)[i].valid()) continue;
    const PageId id = ids[i];
    Shard& shard = ShardFor(id);
    MutexLock lock(&shard.mu, concurrent_);
    Frame* f;
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      f = it->second.get();
      f->prefetched = false;  // pinned through us, not through a prior hit
      if (f->in_lru) {
        // Splice out of the frame's current segment list BEFORE any
        // segment fix-up below.
        std::list<PageId>& list = ListFor(shard, f->segment);
        shard.lru_spares.splice(shard.lru_spares.begin(), list, f->lru_it);
        f->in_lru = false;
      }
      if (f->segment == CacheSegment::kPrefetchQueue) {
        // First demand reference to a prefetched frame: admit to probation
        // and attribute it to this batch's class.
        f->segment = CacheSegment::kProbation;
        f->admit_class = CurrentAccessClass();
      }
    } else {
      Status evict_status = EvictOneIfNeeded(shard, /*demand=*/true);
      if (!evict_status.ok()) {
        lock.Unlock();  // out->clear() re-locks shards
        out->clear();
        return evict_status;
      }
      ++shard.stats.physical_reads;
      if (IoStats* tls = g_tls_io_sink) ++tls->physical_reads;
      auto& frame = miss_frames[miss_slot.find(id)->second];
      HT_CHECK(frame != nullptr);
      f = frame.get();
      f->admit_class = CurrentAccessClass();
      f->segment = AdmitSegmentLocked(shard, id);
      shard.frames.emplace(id, std::move(frame));
    }
    ++f->pins;
    (*out)[i] = PageHandle(this, id, f, TrackPin(id, loc));
  }
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
    Shard& shard = ShardFor(id);
    MutexLock lock(&shard.mu, concurrent_);
    if (shard.frames.find(id) != shard.frames.end()) continue;
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

  {
    Shard& shard = ShardFor(need[0]);
    MutexLock lock(&shard.mu, concurrent_);
    shard.stats.prefetch_issued += need.size();
    if (IoStats* tls = g_tls_io_sink) tls->prefetch_issued += need.size();
  }

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
  std::vector<std::unique_ptr<Frame>> frames;
  std::vector<Page*> pages;
  frames.reserve(ids.size());
  pages.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    frames.push_back(std::make_unique<Frame>(file_->page_size()));
    pages.push_back(&frames.back()->page);
  }
  Status read_status;
  {
    ReaderLock flock(&file_mu_, concurrent_);
    read_status = file_->ReadBatch(ids, pages);
  }
  // Read errors are swallowed: prefetch is best-effort, and the Fetch that
  // actually needs the page will surface the error.
  if (read_status.ok()) {
    {
      Shard& shard = ShardFor(ids[0]);
      MutexLock lock(&shard.mu, concurrent_);
      ++shard.stats.batch_reads;
      if (IoStats* tls = g_tls_io_sink) ++tls->batch_reads;
    }
    // Each batch advances its shards' prefetch generation (once per shard
    // per call, BEFORE the first install evicts): leftovers from older
    // batches become stale and are reclaimed first to make room, while
    // this batch's own fills are spared until the next one lands.
    std::array<bool, kShardCount> bumped{};
    for (size_t i = 0; i < ids.size(); ++i) {
      const PageId id = ids[i];
      Shard& shard = ShardFor(id);
      MutexLock lock(&shard.mu, concurrent_);
      if (shard.frames.find(id) != shard.frames.end()) continue;  // raced
      if (policy_ == CachePolicy::kSlru && !bumped[ShardIndex(id)]) {
        bumped[ShardIndex(id)] = true;
        ++shard.prefetch_gen;
      }
      // Speculative fill: never overflow a pinned-full shard — drop the
      // page instead and let demand re-read it if it is actually needed.
      if (!EvictOneIfNeeded(shard, /*demand=*/false).ok()) continue;
      ++shard.stats.physical_reads;
      if (IoStats* tls = g_tls_io_sink) ++tls->physical_reads;
      Frame* f = frames[i].get();
      f->prefetched = true;
      f->admit_class = AccessClass::kPrefetch;
      // kSlru parks never-referenced fills on the evict-first prefetch
      // queue; kLru keeps the historical LRU-front insertion.
      if (policy_ == CachePolicy::kSlru) {
        f->segment = CacheSegment::kPrefetchQueue;
        f->fill_gen = shard.prefetch_gen;
      }
      std::list<PageId>& list = ListFor(shard, f->segment);
      list.push_front(id);
      f->lru_it = list.begin();
      f->in_lru = true;
      shard.frames.emplace(id, std::move(frames[i]));
    }
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

bool BufferPool::Cached(PageId id) const {
  const Shard& shard = shards_[ShardIndex(id)];
  MutexLock lock(&shard.mu, concurrent_);
  return shard.frames.find(id) != shard.frames.end();
}

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
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu, concurrent_);
  ++shard.stats.allocations;
  ++shard.stats.logical_reads;  // a new node still costs one access to write
  if (IoStats* tls = g_tls_io_sink) {
    ++tls->allocations;
    ++tls->logical_reads;
  }
  HT_RETURN_NOT_OK(EvictOneIfNeeded(shard, /*demand=*/true));
  auto frame = std::make_unique<Frame>(file_->page_size());
  frame->dirty = true;
  frame->pins = 1;
  // Fresh pages enter probation regardless of policy: the page has never
  // been referenced, so there is no reuse evidence yet.
  frame->admit_class = CurrentAccessClass();
  Frame* f = frame.get();
  shard.frames.emplace(id, std::move(frame));
  return PageHandle(this, id, f, TrackPin(id, loc));
}

Status BufferPool::Free(PageId id) {
  Shard& shard = ShardFor(id);
  {
    MutexLock lock(&shard.mu, concurrent_);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      Frame* f = it->second.get();
      if (f->pins != 0) {
        return Status::InvalidArgument("BufferPool::Free of pinned page " +
                                       std::to_string(id));
      }
      if (f->in_lru) ListFor(shard, f->segment).erase(f->lru_it);
      shard.frames.erase(it);
    }
    ++shard.stats.frees;
    if (IoStats* tls = g_tls_io_sink) ++tls->frees;
  }
  WriterLock flock(&file_mu_, concurrent_);
  return file_->Free(id);
}

void BufferPool::Unpin(PageId id, Frame* f) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu, concurrent_);
  HT_CHECK(f != nullptr && f->pins > 0);
  if (--f->pins == 0) {
    std::list<PageId>& list = ListFor(shard, f->segment);
    if (!shard.lru_spares.empty()) {
      shard.lru_spares.front() = id;
      list.splice(list.begin(), shard.lru_spares, shard.lru_spares.begin());
    } else {
      list.push_front(id);
    }
    f->lru_it = list.begin();
    f->in_lru = true;
    if (policy_ == CachePolicy::kSlru &&
        f->segment == CacheSegment::kProtected) {
      EnforceProtectedCapLocked(shard);
    }
  }
}

Status BufferPool::EvictOneIfNeeded(Shard& shard, bool demand) {
  const size_t cap = shard_capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return Status::OK();
  // Loops only after a capacity shrink (or a pin overflow, below) left the
  // shard over target; at a fixed capacity this evicts at most one frame,
  // exactly like classic LRU.
  while (shard.frames.size() >= cap) {
    Status s = EvictVictimLocked(shard);
    if (s.ok()) continue;
    if (demand && s.IsResourceExhausted()) {
      // Every resident frame is pinned by an in-flight query. A demand
      // fetch must not fail on that transient state — concurrent workers
      // would see spurious ResourceExhausted whenever their pins happen
      // to overlap — so admit the frame over capacity and let this very
      // loop evict back down to target once pins release.
      ++shard.stats.pin_overflows;
      if (IoStats* tls = g_tls_io_sink) ++tls->pin_overflows;
      return Status::OK();
    }
    return s;
  }
  return Status::OK();
}

Status BufferPool::EvictVictimLocked(Shard& shard) {
  // Victim order under kSlru: STALE prefetch fills first (prefetched
  // before the shard's newest batch and still never referenced —
  // abandoned speculation), then the probationary tail, then any
  // remaining prefetch fills, then (only when nothing else is left) the
  // protected tail. The staleness gate matters: the batch a traversal
  // just issued is about to be consumed, and evicting it to make room
  // for the next demand miss would waste the batched read AND force a
  // blocking re-read. kLru keeps the single-list recency order.
  PageId victim = kInvalidPageId;
  bool found = false;
  auto take = [&](std::list<PageId>& list) {
    if (list.empty()) return false;
    victim = list.back();
    list.pop_back();
    return true;
  };
  auto take_stale_prefetch = [&]() HT_REQUIRES(shard.mu) {
    if (shard.prefetch_queue.empty()) return false;
    const PageId id = shard.prefetch_queue.back();
    auto fit = shard.frames.find(id);
    HT_CHECK(fit != shard.frames.end());
    if (fit->second->fill_gen >= shard.prefetch_gen) return false;
    victim = id;
    shard.prefetch_queue.pop_back();
    return true;
  };
  if (policy_ == CachePolicy::kSlru) {
    found = take_stale_prefetch() || take(shard.lru) ||
            take(shard.prefetch_queue) || take(shard.protected_lru);
  } else {
    found = take(shard.lru);
  }
  if (!found) {
    return Status::ResourceExhausted("buffer pool full and all pages pinned");
  }
  auto it = shard.frames.find(victim);
  HT_CHECK(it != shard.frames.end() && it->second->pins == 0);
  HT_RETURN_NOT_OK(WriteBack(shard, victim, it->second.get()));
  const size_t cls = static_cast<size_t>(it->second->admit_class);
  shard.frames.erase(it);
  ++shard.stats.evictions;
  ++shard.stats.class_evictions[cls];
  if (IoStats* tls = g_tls_io_sink) {
    ++tls->evictions;
    ++tls->class_evictions[cls];
  }
  return Status::OK();
}

Status BufferPool::WriteBack(Shard& shard, PageId id, Frame* f) {
  if (f->dirty) {
    {
      WriterLock flock(&file_mu_, concurrent_);
      HT_RETURN_NOT_OK(file_->Write(id, f->page));
    }
    ++shard.stats.writes;
    if (IoStats* tls = g_tls_io_sink) ++tls->writes;
    f->dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushShardLocked(Shard& shard, PageId skip) {
  // Collect the dirty set under the shard lock (frames are address-stable
  // and cannot be evicted while the lock is held), then issue ONE batched
  // round trip. A singleton set degrades to a plain Write — no duplicate
  // scan, no iovec setup — via the existing WriteBack path.
  std::vector<PageId> ids;
  std::vector<const Page*> pages;
  Frame* single = nullptr;
  for (auto& [id, f] : shard.frames) {
    if (!f->dirty || id == skip) continue;
    ids.push_back(id);
    pages.push_back(&f->page);
    single = f.get();
  }
  if (ids.empty()) return Status::OK();
  if (ids.size() == 1) return WriteBack(shard, ids[0], single);
  {
    WriterLock flock(&file_mu_, concurrent_);
    HT_RETURN_NOT_OK(file_->WriteBatch(ids, pages));
  }
  // Clear dirty flags only after the whole batch succeeded; on error the
  // frames stay dirty and a retry re-sends them.
  for (PageId id : ids) shard.frames.find(id)->second->dirty = false;
  shard.stats.writes += ids.size();
  ++shard.stats.batch_writes;
  if (IoStats* tls = g_tls_io_sink) {
    tls->writes += ids.size();
    ++tls->batch_writes;
  }
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
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) return Status::OK();
  return WriteBack(shard, id, it->second.get());
}

Status BufferPool::EvictAll() {
  // Finish any in-flight prefetch first: a fill landing after the sweep
  // would silently warm a cache the caller just made cold.
  DrainPrefetch();
  HT_RETURN_NOT_OK(FlushAll());
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    for (auto it = shard.frames.begin(); it != shard.frames.end();) {
      if (it->second->pins == 0) {
        if (it->second->in_lru) {
          ListFor(shard, it->second->segment).erase(it->second->lru_it);
        }
        it = shard.frames.erase(it);
      } else {
        ++it;
      }
    }
  }
  return Status::OK();
}

void BufferPool::CountScan(PageId id, uint64_t rows, uint64_t survivors,
                           bool filtered) {
  const auto charge = [&](IoStats* s) {
    s->scan_points += rows;
    if (filtered) {
      s->quant_refined += survivors;
      s->quant_pruned += rows - survivors;
    }
  };
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu, concurrent_);
  charge(&shard.stats);
  if (IoStats* tls = g_tls_io_sink) charge(tls);
}

const IoStats& BufferPool::stats() const {
  agg_stats_ = StatsSnapshot();
  return agg_stats_;
}

IoStats BufferPool::StatsSnapshot() const {
  IoStats total;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    total.Accumulate(shard.stats);
  }
  return total;
}

void BufferPool::ResetStats() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    shard.stats.Reset();
  }
}

BufferPool::CacheSnapshot BufferPool::SnapshotCache() const {
  CacheSnapshot snap;
  snap.policy = policy_;
  snap.capacity_pages = capacity_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    snap.cached_pages += shard.frames.size();
    snap.probation_pages += shard.lru.size();
    snap.protected_pages += shard.protected_lru.size();
    snap.prefetch_queue_pages += shard.prefetch_queue.size();
    for (const auto& [id, f] : shard.frames) {
      if (f->pins > 0) ++snap.pinned_pages;
    }
    snap.stats.Accumulate(shard.stats);
  }
  return snap;
}

size_t BufferPool::cached_frames() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    n += shard.frames.size();
  }
  return n;
}

size_t BufferPool::pinned_frames() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu, concurrent_);
    for (const auto& [id, f] : shard.frames) {
      if (f->pins > 0) ++n;
    }
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
    for (const auto& [id, f] : shard.frames) {
      if (f->pins > 0) {
        ++frames;
        total_pins += static_cast<uint64_t>(f->pins);
      }
    }
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

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
    : file_(file), policy_(policy), capacity_(capacity_pages) {
#ifdef HT_DEBUG_VALIDATE
  pin_tracking_.store(true, std::memory_order_relaxed);
#endif
}

BufferPool::~BufferPool() {
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

Status BufferPool::SetCapacity(size_t capacity_pages) {
  // Relaxed store: the capacity target is advisory — each reader acts on
  // whatever value it observes under the pool lock, and a stale target
  // only delays (never corrupts) the resize.
  capacity_.store(capacity_pages, std::memory_order_relaxed);
  if (capacity_pages == 0) return Status::OK();
  // Best-effort shrink: evict unpinned frames down to the new target. A
  // pinned overage is left in place — it drains as pins release and later
  // misses evict down to target (EvictOneIfNeeded loops while over).
  MutexLock lock(&mu_);
  while (ResidentLocked() > capacity_pages) {
    if (!EvictVictimLocked().ok()) break;  // everything left is pinned
  }
  return Status::OK();
}

uint8_t BufferPool::SketchTouch(PageId id) {
  // Age first (halving every ~16x-capacity touches keeps the counters a
  // sliding-window frequency estimate, TinyLFU-style), THEN bump. The
  // sketch itself is plain pool state under mu_; only the capacity target
  // is atomic (relaxed: stale values merely shift the halving period).
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  const uint64_t halve_period =
      cap == 0 ? 4096 : std::max<uint64_t>(64, 16 * static_cast<uint64_t>(cap));
  if (++sketch_ops_ >= halve_period) {
    sketch_ops_ = 0;
    for (uint8_t& c : sketch_) c = static_cast<uint8_t>(c >> 1);
  }
  uint8_t& ctr =
      sketch_[(static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> 56];
  if (ctr < kSketchMax) ++ctr;
  return ctr;
}

size_t BufferPool::ProtectedCapacity() const {
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return 0;  // unbounded pool: no budget enforced
  // Keep a probationary floor of ~20% of the pool (at least one frame) so
  // new admissions always have somewhere to live without displacing the
  // protected set; the rest is the protected budget.
  const size_t probation_floor = std::max<size_t>(1, cap / 5);
  return cap > probation_floor ? cap - probation_floor : 0;
}

void BufferPool::EnforceProtectedCapLocked() {
  if (capacity_.load(std::memory_order_relaxed) == 0) return;
  const size_t cap = ProtectedCapacity();
  while (protected_lru_.size() > cap) {
    // Demote the protected tail to the probationary MRU position: it gets
    // one more chance to be re-referenced before reaching the LRU tail.
    Frame* tail = protected_lru_.back();
    protected_lru_.Remove(tail);
    tail->segment = CacheSegment::kProbation;
    lru_.PushFront(tail);
  }
}

void BufferPool::LinkFrontLocked(Frame* f) {
  ListFor(f->segment).PushFront(f);
  if (policy_ == CachePolicy::kSlru && f->segment == CacheSegment::kProtected) {
    EnforceProtectedCapLocked();
  }
}

void BufferPool::PinHitLocked(PageId id, Frame* f) {
  // Relaxed: the pool lock orders this pin after the frame's install, and
  // no eviction of this page can run while the lock is held, so the count
  // is >= 0 here.
  f->pins.fetch_add(1, std::memory_order_relaxed);
  const AccessClass cls = CurrentAccessClass();
  if (f->prefetched.load(std::memory_order_relaxed)) {
    f->prefetched.store(false, std::memory_order_relaxed);
    f->admit_class = cls;  // first demand reference re-attributes the frame
    Count(&IoStats::prefetch_hits);
  }
  ListFor(f->segment).Remove(f);
  if (policy_ == CachePolicy::kSlru) {
    const uint8_t freq = SketchTouch(id);
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
  LinkFrontLocked(f);
}

internal::CacheSegment BufferPool::AdmitSegmentLocked(PageId id) {
  if (policy_ != CachePolicy::kSlru) return CacheSegment::kProbation;
  const uint8_t freq = SketchTouch(id);
  if (CurrentAccessClass() == AccessClass::kQuery && freq >= kSketchPromote) {
    // A recently-hot page that a burst pushed out: readmit straight to
    // protected instead of making it climb out of probation again.
    return CacheSegment::kProtected;
  }
  return CacheSegment::kProbation;
}

BufferPool::Frame* BufferPool::AcquireFrameLocked() {
  if (free_frames_.empty()) {
    owned_.push_back(std::make_unique<Frame>(file_->page_size()));
    return owned_.back().get();
  }
  Frame* f = free_frames_.back();
  free_frames_.pop_back();
  f->page = Page(file_->page_size());
  return f;
}

void BufferPool::RecycleFrameLocked(Frame* f) {
  f->page.Release();
  free_frames_.push_back(f);
}

void BufferPool::InstallLocked(PageId id, Frame* f, int pins) {
  // Relaxed field stores, then the release store of the pin count: a
  // lock-free reader whose pin CAS reads this count (or a later one)
  // synchronizes with it and sees the new id, flag and page bytes.
  f->id.store(id, std::memory_order_relaxed);
  f->pins.store(pins, std::memory_order_release);
  LinkFrontLocked(f);
  table_.Store(id, f);
}

BufferPool::Frame* BufferPool::TryPinUnlocked(PageId id) {
  if (capacity_.load(std::memory_order_relaxed) != 0) return nullptr;
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
  MutexLock lock(&mu_);
  if (Frame* f = table_.Load(id)) {
    CountClass(&IoStats::class_hits, cls);
    PinHitLocked(id, f);
    return PageHandle(this, id, f, TrackPin(id, loc));
  }
  CountClass(&IoStats::class_misses, cls);
  HT_RETURN_NOT_OK(EvictOneIfNeeded(/*demand=*/true));
  Frame* f = AcquireFrameLocked();
  Status read_status;
  {
    // Shared lock: positional reads run concurrently with each other and
    // only exclude allocation/extension and write-back.
    ReaderLock flock(&file_mu_);
    read_status = file_->Read(id, &f->page);
  }
  if (!read_status.ok()) {
    RecycleFrameLocked(f);
    return read_status;
  }
  Count(&IoStats::physical_reads);
  f->dirty = false;
  f->prefetched.store(false, std::memory_order_relaxed);
  f->admit_class = CurrentAccessClass();
  f->segment = AdmitSegmentLocked(id);
  InstallLocked(id, f, /*pins=*/1);
  return PageHandle(this, id, f, TrackPin(id, loc));
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

  Count(&IoStats::prefetch_issued, need.size());
  FillPrefetch(need);
}

void BufferPool::FillPrefetch(std::span<const PageId> ids) {
  // Frames are taken (pins == -1, unpublished) before the batch read, which
  // then fills them outside every lock.
  std::vector<Frame*> frames(ids.size());
  std::vector<Page*> pages(ids.size());
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < ids.size(); ++i) {
      frames[i] = AcquireFrameLocked();
      pages[i] = &frames[i]->page;
    }
  }
  Status read_status;
  {
    ReaderLock flock(&file_mu_);
    read_status = file_->ReadBatch(ids, pages);
  }
  // Read errors are swallowed: prefetch is best-effort, and the Fetch that
  // actually needs the page will surface the error.
  if (read_status.ok()) Count(&IoStats::batch_reads);
  {
    MutexLock lock(&mu_);
    // Each batch advances the prefetch generation (once per call, BEFORE
    // the first install evicts): leftovers from older batches become
    // stale and are reclaimed first to make room, while this batch's own
    // fills are spared until the next one lands.
    bool bumped = false;
    for (size_t i = 0; i < ids.size(); ++i) {
      const PageId id = ids[i];
      Frame* f = frames[i];
      // Drop the fill on a read error, when a racing fetch installed the
      // page first, or — speculative fills never overflow a pinned-full
      // pool — when there is no room; demand re-reads it if it is needed.
      if (!read_status.ok() || table_.Load(id) != nullptr) {
        RecycleFrameLocked(f);
        continue;
      }
      if (policy_ == CachePolicy::kSlru && !bumped) {
        bumped = true;
        ++prefetch_gen_;
      }
      if (!EvictOneIfNeeded(/*demand=*/false).ok()) {
        RecycleFrameLocked(f);
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
        f->fill_gen = prefetch_gen_;
      } else {
        f->segment = CacheSegment::kProbation;
      }
      InstallLocked(id, f, /*pins=*/0);
    }
  }
}

bool BufferPool::Cached(PageId id) const { return table_.Load(id) != nullptr; }

Result<PageHandle> BufferPool::New(std::source_location loc) {
  PageId id;
  {
    WriterLock flock(&file_mu_);
    HT_ASSIGN_OR_RETURN(id, file_->Allocate());
  }
  Count(&IoStats::allocations);
  Count(&IoStats::logical_reads);  // a new node still costs one access
  MutexLock lock(&mu_);
  HT_RETURN_NOT_OK(EvictOneIfNeeded(/*demand=*/true));
  Frame* f = AcquireFrameLocked();  // zeroed page image
  f->dirty = true;
  f->prefetched.store(false, std::memory_order_relaxed);
  // Fresh pages enter probation regardless of policy: the page has never
  // been referenced, so there is no reuse evidence yet.
  f->admit_class = CurrentAccessClass();
  f->segment = CacheSegment::kProbation;
  InstallLocked(id, f, /*pins=*/1);
  return PageHandle(this, id, f, TrackPin(id, loc));
}

Status BufferPool::Free(PageId id) {
  {
    MutexLock lock(&mu_);
    if (Frame* f = table_.Load(id)) {
      int unpinned = 0;
      if (!f->pins.compare_exchange_strong(unpinned, -1,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
        return Status::InvalidArgument("BufferPool::Free of pinned page " +
                                       std::to_string(id));
      }
      DropClaimedLocked(f);
    }
    Count(&IoStats::frees);
  }
  WriterLock flock(&file_mu_);
  return file_->Free(id);
}

void BufferPool::Unpin(Frame* f) {
  // Release pairs with the acquire of the eviction claim (CAS 0 -> -1):
  // everything this pin's holder read happens before the frame is reused.
  const int before = f->pins.fetch_sub(1, std::memory_order_release);
  HT_CHECK(before > 0);
}

Status BufferPool::EvictOneIfNeeded(bool demand) {
  const size_t cap = capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return Status::OK();
  // Loops only after a capacity shrink (or a pin overflow, below) left the
  // pool over target; at a fixed capacity this evicts at most one frame,
  // exactly like classic LRU.
  while (ResidentLocked() >= cap) {
    Status s = EvictVictimLocked();
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

Status BufferPool::EvictVictimLocked() {
  // Victim order under kSlru: STALE prefetch fills first (prefetched
  // before the pool's newest batch and still never referenced —
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
    const uint64_t gen = prefetch_gen_;
    victim = ClaimFromTail(prefetch_queue_,
                           [gen](const Frame* f) { return f->fill_gen < gen; });
    if (victim == nullptr) victim = ClaimFromTail(lru_, any);
    if (victim == nullptr) victim = ClaimFromTail(prefetch_queue_, any);
    if (victim == nullptr) victim = ClaimFromTail(protected_lru_, any);
  } else {
    victim = ClaimFromTail(lru_, any);
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
  DropClaimedLocked(victim);
  Count(&IoStats::evictions);
  CountClass(&IoStats::class_evictions, cls);
  return Status::OK();
}

void BufferPool::DropClaimedLocked(Frame* f) {
  ListFor(f->segment).Remove(f);
  (void)table_.Take(f->id.load(std::memory_order_relaxed));
  RecycleFrameLocked(f);
}

Status BufferPool::WriteBack(PageId id, Frame* f) {
  if (f->dirty) {
    {
      WriterLock flock(&file_mu_);
      HT_RETURN_NOT_OK(file_->Write(id, f->page));
    }
    Count(&IoStats::writes);
    f->dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() { return FlushAllExcept(kInvalidPageId); }

Status BufferPool::FlushAllExcept(PageId skip) {
  // Collect the dirty set under the pool lock (frames cannot be evicted
  // while the lock is held), then issue ONE batched round trip. A
  // singleton set degrades to a plain Write — no duplicate scan, no iovec
  // setup — via the existing WriteBack path.
  MutexLock lock(&mu_);
  std::vector<PageId> ids;
  std::vector<const Page*> pages;
  std::vector<Frame*> dirty;
  ForEachResident([&](Frame* f) {
    const PageId id = f->id.load(std::memory_order_relaxed);
    if (!f->dirty || id == skip) return;
    ids.push_back(id);
    pages.push_back(&f->page);
    dirty.push_back(f);
  });
  if (ids.empty()) return Status::OK();
  if (ids.size() == 1) return WriteBack(ids[0], dirty[0]);
  {
    WriterLock flock(&file_mu_);
    HT_RETURN_NOT_OK(file_->WriteBatch(ids, pages));
  }
  // Clear dirty flags only after the whole batch succeeded; on error the
  // frames stay dirty and a retry re-sends them.
  for (Frame* f : dirty) f->dirty = false;
  Count(&IoStats::writes, ids.size());
  Count(&IoStats::batch_writes);
  return Status::OK();
}

Status BufferPool::FlushPage(PageId id) {
  MutexLock lock(&mu_);
  Frame* f = table_.Load(id);
  if (f == nullptr) return Status::OK();
  return WriteBack(id, f);
}

Status BufferPool::EvictAll() {
  HT_RETURN_NOT_OK(FlushAll());
  MutexLock lock(&mu_);
  std::vector<Frame*> claimed;
  ForEachResident([&claimed](Frame* f) {
    int unpinned = 0;
    if (f->pins.compare_exchange_strong(unpinned, -1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      claimed.push_back(f);
    }
  });
  for (Frame* f : claimed) DropClaimedLocked(f);
  return Status::OK();
}

void BufferPool::CountScans(const ScanTally& tally) {
  // A zero field costs nothing: a box search that tested no sidecar, say.
  const auto add = [this](uint64_t IoStats::*counter, uint64_t n) {
    if (n != 0) Count(counter, n);
  };
  add(&IoStats::scan_points, tally.scan_points);
  add(&IoStats::quant_refined, tally.quant_refined);
  add(&IoStats::quant_pruned, tally.quant_pruned);
  add(&IoStats::quant_skipped_pages, tally.quant_skipped_pages);
}

IoStats BufferPool::stats() const {
  IoStats total;
  for (StatStripe& stripe : stripes_) {
    IoStats::ForEachCounterPair(
        total, stripe.io, [](uint64_t& sum, uint64_t& c) {
          sum += std::atomic_ref<uint64_t>(c).load(std::memory_order_relaxed);
        });
  }
  return total;
}

void BufferPool::ResetStats() {
  for (StatStripe& stripe : stripes_) {
    IoStats::ForEachCounterPair(
        stripe.io, stripe.io, [](uint64_t& c, uint64_t&) {
          std::atomic_ref<uint64_t>(c).store(0, std::memory_order_relaxed);
        });
  }
}

BufferPool::CacheSnapshot BufferPool::SnapshotCache() const {
  CacheSnapshot snap;
  snap.policy = policy_;
  snap.capacity_pages = capacity_.load(std::memory_order_relaxed);
  {
    MutexLock lock(&mu_);
    snap.probation_pages = lru_.size();
    snap.protected_pages = protected_lru_.size();
    snap.prefetch_queue_pages = prefetch_queue_.size();
    ForEachResident([&](const Frame* f) {
      if (f->pins.load(std::memory_order_relaxed) > 0) ++snap.pinned_pages;
    });
  }
  snap.cached_pages =
      snap.probation_pages + snap.protected_pages + snap.prefetch_queue_pages;
  snap.stats = stats();
  return snap;
}

size_t BufferPool::cached_frames() const {
  MutexLock lock(&mu_);
  return ResidentLocked();
}

size_t BufferPool::pinned_frames() const {
  MutexLock lock(&mu_);
  size_t n = 0;
  ForEachResident([&](const Frame* f) {
    if (f->pins.load(std::memory_order_relaxed) > 0) ++n;
  });
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
  // Count pins under the pool lock first; the attribution pass takes
  // pin_mu_ after releasing it.
  uint64_t total_pins = 0;
  uint64_t frames = 0;
  {
    MutexLock lock(&mu_);
    ForEachResident([&](const Frame* f) {
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

#include "serve/sharded_index.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/timing.h"

namespace ht {

namespace {

/// Per-request completion barrier for tasks on a SHARED pool:
/// ThreadPool::Wait() drains the whole queue (every concurrent request's
/// tasks), so each scatter counts down its own latch instead.
class Latch {
 public:
  explicit Latch(size_t n) : remaining_(n) {}

  void Done() {
    MutexLock lock(&mu_);
    if (--remaining_ == 0) cv_.NotifyAll();
  }

  void Wait() {
    MutexLock lock(&mu_);
    while (remaining_ != 0) cv_.Wait(lock);
  }

 private:
  Mutex mu_{LockRank::kServeScatter, "Latch::mu_"};
  CondVar cv_;
  size_t remaining_ HT_GUARDED_BY(mu_);
};

/// Merged request status: Cancelled beats hard failures (the caller asked
/// to stop) beats DeadlineExceeded beats OK. A partial scatter never
/// reports success.
Status MergeShardStatuses(const std::vector<Status>& statuses) {
  const Status* expired = nullptr;
  const Status* failed = nullptr;
  for (const Status& st : statuses) {
    if (st.ok()) continue;
    if (st.IsCancelled()) return st;
    if (st.IsDeadlineExceeded()) {
      if (expired == nullptr) expired = &st;
    } else if (failed == nullptr) {
      failed = &st;
    }
  }
  if (failed != nullptr) return *failed;
  if (expired != nullptr) return *expired;
  return Status::OK();
}

/// Shared bounded top-k of the scatter-gather k-NN: a mutex-guarded
/// max-heap ordered by (distance, global id) — so equal-distance ties are
/// broken by id and the retained set is the canonical k smallest pairs of
/// everything offered, independent of offer interleaving — plus a
/// lock-free mirror of the k-th distance for cheap cross-shard pruning.
/// The mirror may lag (only ever too LARGE), which costs pruning, never
/// correctness.
class SharedTopK {
 public:
  explicit SharedTopK(size_t k) : k_(k) {}

  void Offer(double dist, uint64_t id) {
    const std::pair<double, uint64_t> cand(dist, id);
    MutexLock lock(&mu_);
    if (heap_.size() < k_) {
      heap_.push_back(cand);
      std::push_heap(heap_.begin(), heap_.end());
      if (heap_.size() == k_) {
        bound_.store(heap_.front().first, std::memory_order_relaxed);
      }
    } else if (cand < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = cand;
      std::push_heap(heap_.begin(), heap_.end());
      bound_.store(heap_.front().first, std::memory_order_relaxed);
    }
  }

  /// Current k-th distance, or +inf while fewer than k candidates exist.
  /// A cursor whose NEXT distance exceeds this can stop: its remaining
  /// stream is ascending and the bound only tightens, so nothing it would
  /// yield can displace a retained (distance, id) pair. Candidates AT the
  /// bound keep streaming, which is what preserves id tie-breaking across
  /// the k-th boundary.
  double Bound() const { return bound_.load(std::memory_order_relaxed); }

  /// The bound mirror itself, for handing to KnnCursorOptions::shared_bound
  /// so per-shard cursors prune against the live cross-shard radius. Same
  /// relaxed-read contract as Bound(). Valid for this object's lifetime.
  const std::atomic<double>* BoundPtr() const { return &bound_; }

  /// Drains the heap into (distance, id)-ascending order.
  std::vector<std::pair<double, uint64_t>> TakeSorted() {
    MutexLock lock(&mu_);
    std::sort(heap_.begin(), heap_.end());
    return std::move(heap_);
  }

 private:
  const size_t k_;
  Mutex mu_{LockRank::kServeScatter, "SharedTopK::mu_"};
  std::vector<std::pair<double, uint64_t>> heap_
      HT_GUARDED_BY(mu_);  // max-heap by (dist, id)
  /// Relaxed on both sides: the mirror is a monotone pruning hint with no
  /// associated data — a stale read only weakens pruning (see Bound()),
  /// and the heap itself is only touched under mu_.
  std::atomic<double> bound_{std::numeric_limits<double>::infinity()};
};

}  // namespace

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Build(
    const HybridTreeOptions& tree_options,
    const ShardedIndexOptions& shard_options, const Dataset& data,
    ThreadPool* pool) {
  if (shard_options.io_pool != nullptr && shard_options.io_pool == pool) {
    return Status::InvalidArgument(
        "io_pool must be distinct from the scatter pool (prefetch fills "
        "queued behind the shard tasks waiting on them would deadlock)");
  }
  HT_ASSIGN_OR_RETURN(
      std::vector<std::vector<uint32_t>> parts,
      PartitionRows(data, tree_options, shard_options.partitioner,
                    shard_options.shards));

  std::unique_ptr<ShardedIndex> index(new ShardedIndex());
  index->tree_options_ = tree_options;
  index->shard_options_ = shard_options;
  index->pool_ = pool;
  index->total_count_ = data.size();

  for (size_t s = 0; s < parts.size(); ++s) {
    auto shard = std::make_unique<Shard>();
    shard->file = shard_options.file_factory
                      ? shard_options.file_factory(s)
                      : std::make_unique<MemPagedFile>(tree_options.page_size);
    Dataset shard_data(data.dim(), parts[s].size());
    shard->local_to_global.reserve(parts[s].size());
    for (size_t i = 0; i < parts[s].size(); ++i) {
      auto row = data.Row(parts[s][i]);
      std::copy(row.begin(), row.end(), shard_data.MutableRow(i).begin());
      shard->local_to_global.push_back(parts[s][i]);
    }
    BulkLoadOptions bulk;
    bulk.fill = shard_options.fill;
    bulk.threads = shard_options.bulk_threads;
    HT_ASSIGN_OR_RETURN(
        shard->tree, BulkLoad(tree_options, shard->file.get(), shard_data,
                              bulk));
    // The serving tier is read-only: concurrent-read mode stays on for the
    // life of the index, so requests never pay a mode switch.
    HT_RETURN_NOT_OK(shard->tree->SetConcurrentReads(true));
    if (shard_options.io_pool != nullptr) {
      ThreadPool* io = shard_options.io_pool;
      shard->tree->pool().SetPrefetchExecutor([io](std::function<void()> f) {
        return io
            ->Submit([fill = std::move(f)]() mutable {
              fill();
              return Status::OK();
            })
            .ok();
      });
    }
    if (shard_options.cache_manager != nullptr) {
      // Register AFTER the bulk load so the manager's even split (and any
      // later rebalance) applies to serving traffic, not the build.
      shard_options.cache_manager->Register("shard" + std::to_string(s),
                                            &shard->tree->pool());
    }
    index->shards_.push_back(std::move(shard));
  }
  return index;
}

ShardedIndex::~ShardedIndex() {
  // Unregister from the cache manager first so a concurrent rebalance can
  // never retarget a pool that is being torn down.
  if (shard_options_.cache_manager != nullptr) {
    for (auto& shard : shards_) {
      shard_options_.cache_manager->Unregister(&shard->tree->pool());
    }
  }
  // Detach prefetch executors next: detaching blocks until in-flight
  // fills drain, and those fills reference the shard buffer pools.
  if (shard_options_.io_pool != nullptr) {
    for (auto& shard : shards_) {
      shard->tree->pool().SetPrefetchExecutor(nullptr);
    }
  }
}

std::unique_ptr<SearchScratch> ShardedIndex::AcquireScratch() const {
  {
    MutexLock lock(&scratch_mu_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<SearchScratch> s = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return s;
    }
  }
  return std::make_unique<SearchScratch>();
}

void ShardedIndex::ReleaseScratch(
    std::unique_ptr<SearchScratch> scratch) const {
  MutexLock lock(&scratch_mu_);
  scratch_pool_.push_back(std::move(scratch));
}

IoStats ShardedIndex::shard_io(size_t s) const {
  MutexLock lock(&shards_[s]->io_mu);
  return shards_[s]->io;
}

void ShardedIndex::ResetIo() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->io_mu);
    shard->io.Reset();
  }
}

Status ShardedIndex::RunOnShards(
    const ExecOptions& options,
    const std::function<Status(size_t)>& fn) const {
  const size_t n = shards_.size();
  WallTimer timer;
  const double deadline = options.deadline_seconds;
  const std::atomic<bool>* cancel = options.cancel;
  std::vector<Status> statuses(n);
  // Per-task I/O, one private slot per shard (no locking); summed into
  // options.request_io after the barrier for per-request attribution.
  std::vector<IoStats> task_io(n);

  auto run_one = [&](size_t s) {
    // Late starts fail fast: a shard task dequeued after cancellation or
    // past the deadline must not produce a partial (= wrong) answer.
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      statuses[s] = Status::Cancelled("request cancelled");
      return;
    }
    if (deadline > 0.0 && timer.Seconds() > deadline) {
      statuses[s] =
          Status::DeadlineExceeded("deadline exceeded before shard search");
      return;
    }
    IoStats io;
    {
      IoStatsScope scope(&io);
      statuses[s] = fn(s);
    }
    {
      MutexLock lock(&shards_[s]->io_mu);
      shards_[s]->io.Accumulate(io);
    }
    task_io[s] = io;
  };

  if (pool_ == nullptr) {
    for (size_t s = 0; s < n; ++s) run_one(s);
  } else {
    Latch latch(n);
    for (size_t s = 0; s < n; ++s) {
      Status submit = pool_->Submit([&, s]() -> Status {
        run_one(s);
        latch.Done();
        return Status::OK();
      });
      if (!submit.ok()) {
        statuses[s] = submit;
        latch.Done();
      }
    }
    latch.Wait();
  }
  if (options.request_io != nullptr) {
    for (const IoStats& io : task_io) options.request_io->Accumulate(io);
  }
  return MergeShardStatuses(statuses);
}

Status ShardedIndex::SearchBox(const Box& query, const ExecOptions& options,
                               std::vector<uint64_t>* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("SearchBox requires an output vector");
  }
  out->clear();
  std::vector<std::vector<uint64_t>> per_shard(shards_.size());
  HT_RETURN_NOT_OK(RunOnShards(options, [&](size_t s) -> Status {
    const Shard& shard = *shards_[s];
    std::unique_ptr<SearchScratch> scratch = AcquireScratch();
    Status st = shard.tree->SearchBoxInto(query, scratch.get(), &per_shard[s]);
    ReleaseScratch(std::move(scratch));
    HT_RETURN_NOT_OK(st);
    for (uint64_t& id : per_shard[s]) id = shard.local_to_global[id];
    return Status::OK();
  }));
  for (const auto& v : per_shard) out->insert(out->end(), v.begin(), v.end());
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Status ShardedIndex::SearchRange(std::span<const float> center, double radius,
                                 const DistanceMetric& metric,
                                 const ExecOptions& options,
                                 std::vector<uint64_t>* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("SearchRange requires an output vector");
  }
  out->clear();
  std::vector<std::vector<uint64_t>> per_shard(shards_.size());
  HT_RETURN_NOT_OK(RunOnShards(options, [&](size_t s) -> Status {
    const Shard& shard = *shards_[s];
    std::unique_ptr<SearchScratch> scratch = AcquireScratch();
    Status st = shard.tree->SearchRangeInto(center, radius, metric,
                                            scratch.get(), &per_shard[s]);
    ReleaseScratch(std::move(scratch));
    HT_RETURN_NOT_OK(st);
    for (uint64_t& id : per_shard[s]) id = shard.local_to_global[id];
    return Status::OK();
  }));
  for (const auto& v : per_shard) out->insert(out->end(), v.begin(), v.end());
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Status ShardedIndex::SearchKnn(
    std::span<const float> center, size_t k, const DistanceMetric& metric,
    const ExecOptions& options,
    std::vector<std::pair<double, uint64_t>>* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("SearchKnn requires an output vector");
  }
  out->clear();
  // Box and range get this check from the tree; the k-NN cursor treats a
  // wrong-sized center as a programming error, so the request boundary
  // must refuse it first.
  if (center.size() != tree_options_.dim) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (k == 0) return Status::OK();
  if (options.knn_epsilon < 0.0) {
    return Status::InvalidArgument("knn_epsilon must be non-negative");
  }

  SharedTopK top(k);
  WallTimer timer;
  const double deadline = options.deadline_seconds;
  const std::atomic<bool>* cancel = options.cancel;
  // Budget-split policy: the request's total leaf-visit budget divides
  // evenly across shards, rounding UP — ceil keeps the per-shard slice
  // from being rounded to zero and never under-provisions the request
  // total (at most shards-1 extra visits). Each shard's slice is private,
  // which is what keeps budgeted results deterministic: no shard's visit
  // count depends on another shard's progress.
  const size_t budget = options.knn_max_leaf_visits;
  const size_t per_shard_budget =
      budget == 0 ? 0 : (budget + shards_.size() - 1) / shards_.size();
  KnnCursorOptions copts;
  copts.limit = k;
  copts.epsilon = options.knn_epsilon;
  copts.max_leaf_visits = per_shard_budget;
  copts.shared_bound = top.BoundPtr();
  // Per-task approximation accounting, one private slot per shard (no
  // locking); summed into options.knn_stats after the scatter barrier.
  std::vector<KnnExecStats> task_knn(shards_.size());

  Status run = RunOnShards(options, [&](size_t s) -> Status {
    const Shard& shard = *shards_[s];
    if (shard.tree->size() == 0) return Status::OK();
    HybridTree::KnnCursor cursor =
        shard.tree->OpenKnnCursor(center, metric, copts);
    Status st = Status::OK();
    for (;;) {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        st = Status::Cancelled("request cancelled");
        break;
      }
      if (deadline > 0.0 && timer.Seconds() > deadline) {
        st = Status::DeadlineExceeded("deadline exceeded mid k-NN");
        break;
      }
      auto next_or = cursor.Next();
      if (!next_or.ok()) {
        st = next_or.status();
        break;
      }
      const auto& next = next_or.ValueOrDie();
      if (!next.has_value()) break;
      // Cross-shard bound tightening: the cursor streams ascending, so
      // once its next candidate lies strictly beyond the shared k-th
      // distance nothing further from this shard can make the top-k.
      if (next->first > top.Bound()) break;
      top.Offer(next->first, shard.local_to_global[next->second]);
    }
    task_knn[s].leaf_visits = cursor.leaf_visits();
    if (cursor.early_terminated()) task_knn[s].early_terminations = 1;
    return st;
  });
  if (options.knn_stats != nullptr) {
    for (const KnnExecStats& kn : task_knn) options.knn_stats->Accumulate(kn);
  }
  HT_RETURN_NOT_OK(run);
  *out = top.TakeSorted();
  return Status::OK();
}

}  // namespace ht

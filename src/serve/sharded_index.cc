#include "serve/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/timing.h"

namespace ht {

namespace {

/// Per-request completion barrier: ThreadPool::Wait() drains the whole
/// queue (every concurrent request's tasks), so each scatter counts down
/// its own latch instead.
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

/// One request's scatter, co-owned by the calling thread and every helper
/// token it submits. Tasks are claimed from one counter (claim i runs the
/// i-th task of the visit order) and each finished task counts down the
/// latch. A token may run long after its request has returned, even after
/// the index is destroyed, so it touches only this block — which co-owns
/// the index's slot count — until a claim succeeds. The caller claims
/// every task no token has claimed and then waits for every claimed one,
/// so the task (on the caller's stack) is live whenever a claim succeeds.
class Scatter {
 public:
  template <typename Task>
  Scatter(size_t tasks, std::shared_ptr<std::atomic<size_t>> busy_slots,
          Task* task)
      : tasks_(tasks),
        latch_(tasks),
        busy_slots_(std::move(busy_slots)),
        task_(task),
        run_([](void* t, size_t i) { (*static_cast<Task*>(t))(i); }) {}

  /// Claims and runs tasks until every task has been claimed.
  void RunClaimed() {
    for (;;) {
      // Relaxed: the counter only hands out distinct indices. The task was
      // published to a token by its Submit, and task results reach the
      // caller through the latch's mutex.
      const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks_) return;
      run_(task_, i);
      latch_.Done();
    }
  }

  /// Blocks until every task has finished.
  void Wait() { latch_.Wait(); }

  /// Returns `slots` pool slots to the index's count.
  void ReleaseSlots(size_t slots) {
    busy_slots_->fetch_sub(slots, std::memory_order_relaxed);
  }

 private:
  const size_t tasks_;
  std::atomic<size_t> next_{0};
  Latch latch_;
  std::shared_ptr<std::atomic<size_t>> busy_slots_;
  void* const task_;
  void (*const run_)(void*, size_t);
};

/// Takes the caller's pool slot plus up to `wanted` of the slots still
/// free after it, and returns how many it took beyond the caller's (one
/// per helper token to submit).
size_t TakeSlots(std::atomic<size_t>* busy, size_t pool_size, size_t wanted) {
  size_t held = busy->load(std::memory_order_relaxed);
  size_t helpers = 0;
  do {
    const size_t free_slots = pool_size > held + 1 ? pool_size - held - 1 : 0;
    helpers = std::min(wanted, free_slots);
  } while (!busy->compare_exchange_weak(held, held + 1 + helpers,
                                        std::memory_order_relaxed));
  return helpers;
}

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
    shard->bounds = Box::Empty(data.dim());
    for (size_t i = 0; i < parts[s].size(); ++i) {
      auto row = data.Row(parts[s][i]);
      std::copy(row.begin(), row.end(), shard_data.MutableRow(i).begin());
      shard->local_to_global.push_back(parts[s][i]);
      shard->bounds.ExtendToInclude(row);
    }
    HT_ASSIGN_OR_RETURN(
        shard->tree, BulkLoad(tree_options, shard->file.get(), shard_data));
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
  // Unregister from the cache manager so a concurrent rebalance can never
  // retarget a pool that is being torn down.
  if (shard_options_.cache_manager != nullptr) {
    for (auto& shard : shards_) {
      shard_options_.cache_manager->Unregister(&shard->tree->pool());
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
    const ExecOptions& options, std::span<const size_t> order,
    const std::function<Status(size_t)>& fn) const {
  const size_t n = shards_.size();
  WallTimer timer;
  const double deadline = options.deadline_seconds;
  const std::atomic<bool>* cancel = options.cancel;
  std::vector<Status> statuses(n);
  // Per-task I/O, one private slot per shard (no locking); summed into
  // options.request_io after the barrier for per-request attribution.
  std::vector<IoStats> task_io(n);

  auto run_one = [&](size_t claim) {
    const size_t s = order.empty() ? claim : order[claim];
    // Late starts fail fast: a shard task claimed after cancellation or
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
      // A shard task is a plain query whichever thread runs it.
      IoStatsScope scope(&io);
      AccessClassScope query_class(AccessClass::kQuery);
      statuses[s] = fn(s);
    }
    {
      MutexLock lock(&shards_[s]->io_mu);
      shards_[s]->io.Accumulate(io);
    }
    task_io[s] = io;
  };

  const auto scatter = std::make_shared<Scatter>(n, busy_slots_, &run_one);
  if (pool_ != nullptr) {
    const size_t helpers =
        TakeSlots(busy_slots_.get(), pool_->num_threads(), n - 1);
    for (size_t h = 0; h < helpers; ++h) {
      Status submit = pool_->Submit([scatter]() -> Status {
        scatter->RunClaimed();
        scatter->ReleaseSlots(1);
        return Status::OK();
      });
      if (!submit.ok()) {
        // The pool is shutting down: the caller runs what is left.
        scatter->ReleaseSlots(helpers - h);
        break;
      }
    }
  }
  scatter->RunClaimed();
  if (pool_ != nullptr) scatter->ReleaseSlots(1);
  scatter->Wait();
  if (options.request_io != nullptr) {
    for (const IoStats& io : task_io) options.request_io->Accumulate(io);
  }
  return MergeShardStatuses(statuses);
}

template <class Search>
Status ShardedIndex::GatherIds(const ExecOptions& options,
                               const Search& search,
                               std::vector<uint64_t>* out) const {
  out->clear();
  std::vector<std::vector<uint64_t>> per_shard(shards_.size());
  HT_RETURN_NOT_OK(RunOnShards(options, {}, [&](size_t s) -> Status {
    const Shard& shard = *shards_[s];
    std::unique_ptr<SearchScratch> scratch = AcquireScratch();
    Status st = search(*shard.tree, scratch.get(), &per_shard[s]);
    ReleaseScratch(std::move(scratch));
    HT_RETURN_NOT_OK(st);
    for (uint64_t& id : per_shard[s]) id = shard.local_to_global[id];
    return Status::OK();
  }));
  for (const auto& v : per_shard) out->insert(out->end(), v.begin(), v.end());
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Status ShardedIndex::SearchBox(const Box& query, const ExecOptions& options,
                               std::vector<uint64_t>* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("SearchBox requires an output vector");
  }
  return GatherIds(
      options,
      [&](const HybridTree& tree, SearchScratch* scratch,
          std::vector<uint64_t>* ids) {
        return tree.SearchBoxInto(query, scratch, ids);
      },
      out);
}

Status ShardedIndex::SearchRange(std::span<const float> center, double radius,
                                 const DistanceMetric& metric,
                                 const ExecOptions& options,
                                 std::vector<uint64_t>* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("SearchRange requires an output vector");
  }
  return GatherIds(
      options,
      [&](const HybridTree& tree, SearchScratch* scratch,
          std::vector<uint64_t>* ids) {
        return tree.SearchRangeInto(center, radius, metric, scratch, ids);
      },
      out);
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
  // The same holds for an epsilon that is negative, NaN or infinite.
  if (!std::isfinite(options.knn_epsilon) || options.knn_epsilon < 0.0) {
    return Status::InvalidArgument(
        "knn_epsilon must be finite and non-negative");
  }
  if (k == 0) return Status::OK();

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

  // Nearest shard first: ascending MINDIST from the query to each shard's
  // bounding box, ties by shard index; empty shards and a NaN MINDIST sort
  // last. The first shard sets the shared radius before the later cursors
  // start, so they prune against it. The order changes only how much is
  // pruned, never the answer.
  const size_t n = shards_.size();
  std::vector<double> mindist(n);
  std::vector<size_t> order(n);
  for (size_t s = 0; s < n; ++s) {
    const Shard& shard = *shards_[s];
    const double d = shard.tree->size() == 0
                         ? std::numeric_limits<double>::infinity()
                         : metric.MinDistToBox(center, shard.bounds);
    mindist[s] = std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
    order[s] = s;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return mindist[a] < mindist[b] || (mindist[a] == mindist[b] && a < b);
  });

  Status run = RunOnShards(options, order, [&](size_t s) -> Status {
    const Shard& shard = *shards_[s];
    if (shard.tree->size() == 0) return Status::OK();
    // The cursor keeps its whole state in the borrowed scratch, so it is
    // destroyed before the scratch goes back to the free-list.
    std::unique_ptr<SearchScratch> scratch = AcquireScratch();
    Status st = Status::OK();
    {
      HybridTree::KnnCursor cursor =
          shard.tree->OpenKnnCursor(center, metric, copts, scratch.get());
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
    }
    ReleaseScratch(std::move(scratch));
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

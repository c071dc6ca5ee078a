// Scatter-gather correctness for the serving layer's ShardedIndex: for
// every tested shard count, partitioner, and pool size the merged
// box/range/k-NN answers must be IDENTICAL to a single unsharded tree
// over the same data, canonicalized the same way (box/range ids
// ascending; k-NN by (distance, id) ascending — the ShardedIndex output
// contract). Also covers k-NN tie-breaking at equal distances (canonical
// spec: BruteForceKnn, which ties by id), deadline/cancel propagation,
// empty shards, a scatter that never waits for a task no thread has
// started (a request from a pool worker, and a pool whose workers are all
// blocked), and a multi-client concurrent stress that the CI TSAN job
// runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"
#include "exec/thread_pool.h"
#include "geometry/metrics.h"
#include "serve/partition.h"
#include "serve/sharded_index.h"
#include "storage/paged_file.h"

namespace ht {
namespace {

constexpr uint32_t kDim = 16;
constexpr size_t kPoints = 2500;
constexpr size_t kQueries = 25;
constexpr size_t kK = 10;

/// Canonical k-NN ordering: ascending (distance, id).
void Canonicalize(std::vector<std::pair<double, uint64_t>>* knn) {
  std::sort(knn->begin(), knn->end());
}

/// Waits for `finished`, aborting the process if it is not ready within a
/// minute: a scatter that waits for a task no thread will ever start hangs
/// forever, and a hung test would stall the whole suite. A minute is far
/// beyond what the guarded work takes, sanitizers included.
void WaitOrAbort(std::future<void>& finished, const char* what) {
  if (finished.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "watchdog: %s did not finish within 60 s\n", what);
    std::abort();
  }
  finished.get();
}

class ShardedSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    data_ = GenFourier(kPoints, kDim, rng);
    opts_.dim = kDim;

    // Unsharded reference tree (the ground truth the scatter must match).
    file_ = std::make_unique<MemPagedFile>(opts_.page_size);
    auto tree_r = BulkLoad(opts_, file_.get(), data_, BulkLoadOptions{});
    ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
    reference_ = std::move(tree_r).ValueUnsafe();

    const double side = CalibrateBoxSide(data_, 0.01, 10, rng);
    radius_ = CalibrateRangeRadius(data_, metric_, 0.01, 10, rng);
    auto centers = MakeQueryCenters(data_, kQueries, rng);
    for (const auto& c : centers) {
      boxes_.push_back(MakeBoxQuery(c, side));
      centers_.push_back(std::vector<float>(c.begin(), c.end()));
    }

    for (size_t i = 0; i < kQueries; ++i) {
      auto box = reference_->SearchBox(boxes_[i]).ValueOrDie();
      std::sort(box.begin(), box.end());
      ref_box_.push_back(std::move(box));
      auto range =
          reference_->SearchRange(centers_[i], radius_, metric_).ValueOrDie();
      std::sort(range.begin(), range.end());
      ref_range_.push_back(std::move(range));
      auto knn =
          reference_->SearchKnn(centers_[i], kK, metric_).ValueOrDie();
      Canonicalize(&knn);
      ref_knn_.push_back(std::move(knn));
    }
  }

  /// Runs the full workload against `index` and asserts canonical
  /// equality with the unsharded reference.
  void ExpectIdentical(const ShardedIndex& index, const std::string& label) {
    ExecOptions exec;
    std::vector<uint64_t> ids;
    std::vector<std::pair<double, uint64_t>> knn;
    for (size_t i = 0; i < kQueries; ++i) {
      ASSERT_TRUE(index.SearchBox(boxes_[i], exec, &ids).ok()) << label;
      EXPECT_EQ(ids, ref_box_[i]) << label << " box query " << i;
      ASSERT_TRUE(
          index.SearchRange(centers_[i], radius_, metric_, exec, &ids).ok())
          << label;
      EXPECT_EQ(ids, ref_range_[i]) << label << " range query " << i;
      ASSERT_TRUE(
          index.SearchKnn(centers_[i], kK, metric_, exec, &knn).ok())
          << label;
      EXPECT_EQ(knn, ref_knn_[i]) << label << " knn query " << i;
    }
  }

  Dataset data_;
  HybridTreeOptions opts_;
  std::unique_ptr<MemPagedFile> file_;
  std::unique_ptr<HybridTree> reference_;
  L2Metric metric_;
  std::vector<Box> boxes_;
  std::vector<std::vector<float>> centers_;
  double radius_ = 0.0;
  std::vector<std::vector<uint64_t>> ref_box_;
  std::vector<std::vector<uint64_t>> ref_range_;
  std::vector<std::vector<std::pair<double, uint64_t>>> ref_knn_;
};

TEST_F(ShardedSearchTest, PartitionersCoverEveryRowExactlyOnce) {
  for (ShardPartitioner p :
       {ShardPartitioner::kKdRegion, ShardPartitioner::kHash}) {
    for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
      auto parts_r = PartitionRows(data_, opts_, p, shards);
      ASSERT_TRUE(parts_r.ok());
      const auto& parts = parts_r.ValueOrDie();
      ASSERT_EQ(parts.size(), shards);
      std::vector<uint32_t> all;
      for (const auto& part : parts) {
        all.insert(all.end(), part.begin(), part.end());
      }
      std::sort(all.begin(), all.end());
      ASSERT_EQ(all.size(), data_.size());
      for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i], static_cast<uint32_t>(i));
      }
      // Determinism: the assignment is a pure function of the data.
      auto again = PartitionRows(data_, opts_, p, shards);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(parts, again.ValueOrDie());
    }
  }
}

TEST_F(ShardedSearchTest, IdenticalAcrossShardCountsPartitionersAndThreads) {
  for (ShardPartitioner p :
       {ShardPartitioner::kKdRegion, ShardPartitioner::kHash}) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                          size_t{7}}) {
      ShardedIndexOptions so;
      so.shards = shards;
      so.partitioner = p;
      auto index_r = ShardedIndex::Build(opts_, so, data_, nullptr);
      ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
      auto index = std::move(index_r).ValueUnsafe();
      const std::string base =
          (p == ShardPartitioner::kKdRegion ? "kd" : "hash") + std::string("/") +
          std::to_string(shards) + " shards";

      // Serial in-caller scatter (null pool)...
      ExpectIdentical(*index, base + "/inline");
      // ...and every pool size, over the same built index.
      for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
        ThreadPool pool(threads);
        index->set_pool(&pool);
        ExpectIdentical(*index, base + "/" + std::to_string(threads) +
                                    " threads");
        index->set_pool(nullptr);
      }
    }
  }
}

TEST_F(ShardedSearchTest, IdenticalForAQueryOutsideEveryShardBox) {
  // Every shard's bounding box is inside the data's, so a query beyond the
  // data's box on every axis lies outside all of them: the k-NN visit
  // order then ranks shards by a MINDIST that is positive everywhere (with
  // hash shards, whose boxes all span nearly the whole data, by small
  // differences only).
  Box data_box = Box::Empty(kDim);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_box.ExtendToInclude(data_.Row(i));
  }
  std::vector<float> center(kDim);
  for (uint32_t d = 0; d < kDim; ++d) {
    center[d] = d % 2 == 0 ? data_box.hi(d) + 0.25f : data_box.lo(d) - 0.25f;
  }
  auto want_knn = reference_->SearchKnn(center, kK, metric_).ValueOrDie();
  Canonicalize(&want_knn);
  // A radius and a box that reach from the query into the data, so range
  // and box answers are not empty.
  const double radius = want_knn.back().first;
  auto want_range =
      reference_->SearchRange(center, radius, metric_).ValueOrDie();
  std::sort(want_range.begin(), want_range.end());
  Box box = Box::FromPoint(center);
  for (const auto& [d, id] : want_knn) box.ExtendToInclude(data_.Row(id));
  auto want_box = reference_->SearchBox(box).ValueOrDie();
  std::sort(want_box.begin(), want_box.end());
  ASSERT_FALSE(want_range.empty());
  ASSERT_FALSE(want_box.empty());

  for (ShardPartitioner p :
       {ShardPartitioner::kHash, ShardPartitioner::kKdRegion}) {
    SCOPED_TRACE(p == ShardPartitioner::kKdRegion ? "kd" : "hash");
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      ShardedIndexOptions so;
      so.shards = shards;
      so.partitioner = p;
      auto index_r = ShardedIndex::Build(opts_, so, data_, nullptr);
      ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
      auto index = std::move(index_r).ValueUnsafe();
      for (size_t threads : {size_t{0}, size_t{1}, size_t{3}, size_t{8}}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
        index->set_pool(pool.get());
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ExecOptions exec;
        std::vector<std::pair<double, uint64_t>> knn;
        ASSERT_TRUE(index->SearchKnn(center, kK, metric_, exec, &knn).ok());
        EXPECT_EQ(knn, want_knn);
        std::vector<uint64_t> ids;
        ASSERT_TRUE(
            index->SearchRange(center, radius, metric_, exec, &ids).ok());
        EXPECT_EQ(ids, want_range);
        ASSERT_TRUE(index->SearchBox(box, exec, &ids).ok());
        EXPECT_EQ(ids, want_box);
        index->set_pool(nullptr);
      }
    }
  }
}

TEST_F(ShardedSearchTest, RequestFromThePoolsOnlyWorkerCompletes) {
  // The caller runs every shard task no helper has claimed, so a request
  // issued from the pool's only worker never waits on that worker.
  ShardedIndexOptions so;
  so.shards = 4;
  ThreadPool pool(1);
  auto index =
      std::move(ShardedIndex::Build(opts_, so, data_, &pool)).ValueUnsafe();
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  const auto from_worker = [&]() -> Status {
    ExpectIdentical(*index, "from the pool's worker");
    done.set_value();
    return Status::OK();
  };
  ASSERT_TRUE(pool.Submit(from_worker).ok());
  WaitOrAbort(finished, "a request from the pool's only worker");
  ASSERT_TRUE(pool.Wait().ok());
}

TEST_F(ShardedSearchTest, BlockedPoolWorkersNeverStallARequest) {
  // Every worker is blocked. An external caller's requests complete on
  // its own thread. With free slots the scatters also queue helper tokens
  // behind the blocked workers; those run only after the request has
  // returned and the index is gone, and must touch nothing of either (the
  // ASan and TSAN jobs run this file).
  ShardedIndexOptions so;
  so.shards = 4;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<size_t> blocked{0};
    const auto block = [gate, &blocked]() -> Status {
      blocked.fetch_add(1, std::memory_order_relaxed);
      gate.wait();
      return Status::OK();
    };
    for (size_t t = 0; t < threads; ++t) ASSERT_TRUE(pool.Submit(block).ok());
    while (blocked.load(std::memory_order_relaxed) < threads) {
      std::this_thread::yield();
    }
    {
      auto index_r = ShardedIndex::Build(opts_, so, data_, &pool);
      ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
      auto index = std::move(index_r).ValueUnsafe();
      std::promise<void> done;
      std::future<void> finished = done.get_future();
      std::thread client([&] {
        ExpectIdentical(*index, std::to_string(threads) + " blocked workers");
        done.set_value();
      });
      WaitOrAbort(finished, "a request on a pool of blocked workers");
      client.join();
    }
    release.set_value();
    ASSERT_TRUE(pool.Wait().ok());
  }
}

TEST_F(ShardedSearchTest, KnnTieBreakingAtEqualDistancesIsById) {
  // Every point triplicated: distances tie in groups of three, including
  // across the k-th boundary. The canonical answer — and the ShardedIndex
  // contract — is BruteForceKnn's: ascending (distance, id), the k
  // smallest pairs. Must hold at every shard count / partitioner and be
  // independent of the pool interleaving.
  Rng rng(23);
  Dataset base = GenFourier(400, kDim, rng);
  Dataset tied(kDim, 3 * base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    for (size_t copy = 0; copy < 3; ++copy) {
      auto row = base.Row(i);
      std::copy(row.begin(), row.end(),
                tied.MutableRow(3 * i + copy).begin());
    }
  }
  auto centers = MakeQueryCenters(tied, 10, rng);
  ThreadPool pool(4);
  for (ShardPartitioner p :
       {ShardPartitioner::kKdRegion, ShardPartitioner::kHash}) {
    for (size_t shards : {size_t{1}, size_t{3}, size_t{4}}) {
      ShardedIndexOptions so;
      so.shards = shards;
      so.partitioner = p;
      auto index_r = ShardedIndex::Build(opts_, so, tied, &pool);
      ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
      auto index = std::move(index_r).ValueUnsafe();
      std::vector<std::pair<double, uint64_t>> knn;
      for (const auto& c : centers) {
        // k = 7 deliberately lands mid-triplet so the boundary tie is
        // resolved by global id.
        ASSERT_TRUE(index->SearchKnn(c, 7, metric_, ExecOptions{}, &knn).ok());
        auto want = BruteForceKnn(tied, c, 7, metric_);
        EXPECT_EQ(knn, want) << "shards=" << shards;
      }
    }
  }
}

TEST_F(ShardedSearchTest, DeadlineBeforeScatterExpiresWholeRequest) {
  ShardedIndexOptions so;
  so.shards = 4;
  auto index = std::move(ShardedIndex::Build(opts_, so, data_, nullptr))
                   .ValueUnsafe();
  ExecOptions exec;
  exec.deadline_seconds = 1e-12;  // expired before any shard task starts
  std::vector<uint64_t> ids;
  Status st = index->SearchBox(boxes_[0], exec, &ids);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  std::vector<std::pair<double, uint64_t>> knn;
  st = index->SearchKnn(centers_[0], kK, metric_, exec, &knn);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
}

TEST_F(ShardedSearchTest, CancelFlagCancelsRequest) {
  ShardedIndexOptions so;
  so.shards = 2;
  auto index = std::move(ShardedIndex::Build(opts_, so, data_, nullptr))
                   .ValueUnsafe();
  std::atomic<bool> cancel{true};
  ExecOptions exec;
  exec.cancel = &cancel;
  std::vector<uint64_t> ids;
  Status st = index->SearchBox(boxes_[0], exec, &ids);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

TEST_F(ShardedSearchTest, TinyDatasetsLeaveEmptyShardsServable) {
  Dataset tiny(kDim, 3);
  for (size_t i = 0; i < 3; ++i) {
    for (uint32_t d = 0; d < kDim; ++d) {
      tiny.MutableRow(i)[d] = 0.25f * static_cast<float>(i + 1);
    }
  }
  for (ShardPartitioner p :
       {ShardPartitioner::kKdRegion, ShardPartitioner::kHash}) {
    ShardedIndexOptions so;
    so.shards = 5;  // more shards than rows: some must be empty
    so.partitioner = p;
    auto index_r = ShardedIndex::Build(opts_, so, tiny, nullptr);
    ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
    auto index = std::move(index_r).ValueUnsafe();
    std::vector<uint64_t> ids;
    ASSERT_TRUE(
        index->SearchBox(Box::UnitCube(kDim), ExecOptions{}, &ids).ok());
    EXPECT_EQ(ids, (std::vector<uint64_t>{0, 1, 2}));
    std::vector<std::pair<double, uint64_t>> knn;
    ASSERT_TRUE(index->SearchKnn(tiny.Row(0), 10, metric_, ExecOptions{},
                                 &knn)
                    .ok());
    EXPECT_EQ(knn.size(), 3u);  // k > n returns everything
    EXPECT_EQ(knn[0].second, 0u);
  }
}

TEST_F(ShardedSearchTest, ServingIoIsAttributedPerShard) {
  ShardedIndexOptions so;
  so.shards = 3;
  auto index = std::move(ShardedIndex::Build(opts_, so, data_, nullptr))
                   .ValueUnsafe();
  uint64_t logical = 0;
  for (size_t s = 0; s < index->shards(); ++s) {
    logical += index->shard_io(s).logical_reads;
  }
  EXPECT_EQ(logical, 0u);  // build I/O is not serving I/O
  std::vector<uint64_t> ids;
  ASSERT_TRUE(index->SearchBox(boxes_[0], ExecOptions{}, &ids).ok());
  logical = 0;
  for (size_t s = 0; s < index->shards(); ++s) {
    logical += index->shard_io(s).logical_reads;
  }
  EXPECT_GT(logical, 0u);
  index->ResetIo();
  for (size_t s = 0; s < index->shards(); ++s) {
    EXPECT_EQ(index->shard_io(s).logical_reads, 0u);
  }
}

// The configuration the server runs: many client threads scattering over
// one ShardedIndex on one shared pool, with a metrics poller alongside.
// Must be byte-identical per client and TSAN-clean (CI runs this file
// under -DHT_SANITIZE=thread).
TEST_F(ShardedSearchTest, ConcurrentClientsStayIdenticalAndRaceFree) {
  ShardedIndexOptions so;
  so.shards = 4;
  ThreadPool pool(4);
  auto index =
      std::move(ShardedIndex::Build(opts_, so, data_, &pool)).ValueUnsafe();

  constexpr size_t kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t total = 0;
      for (size_t s = 0; s < index->shards(); ++s) {
        total += index->shard_io(s).logical_reads;
      }
      (void)total;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ExecOptions exec;
      std::vector<uint64_t> ids;
      std::vector<std::pair<double, uint64_t>> knn;
      for (size_t i = c; i < kQueries; i += 1) {
        if (!index->SearchBox(boxes_[i], exec, &ids).ok() ||
            ids != ref_box_[i]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (!index->SearchKnn(centers_[i], kK, metric_, exec, &knn).ok() ||
            knn != ref_knn_[i]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace ht

// Concurrency tests for the shared-read query path: N reader threads over
// one HybridTree must return byte-identical results to a single-threaded
// run, deterministically, under shuffled per-thread scheduling — and the
// whole file must run cleanly under ThreadSanitizer (the CI tsan job does).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"
#include "geometry/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"

namespace ht {
namespace {

constexpr uint32_t kDim = 16;
constexpr size_t kPoints = 2000;
constexpr size_t kQueries = 40;
constexpr size_t kReaders = 8;

/// FOURIER 16-d tree + calibrated box/range/knn workloads + single-threaded
/// reference answers.
class ConcurrentSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    data_ = GenFourier(kPoints, kDim, rng);
    file_ = std::make_unique<MemPagedFile>();
    HybridTreeOptions opts;
    opts.dim = kDim;
    auto tree_r = HybridTree::Create(opts, file_.get());
    ASSERT_TRUE(tree_r.ok()) << tree_r.status().ToString();
    tree_ = std::move(tree_r).ValueUnsafe();
    for (size_t i = 0; i < data_.size(); ++i) {
      ASSERT_TRUE(tree_->Insert(data_.Row(i), i).ok());
    }

    const double side = CalibrateBoxSide(data_, 0.01, 10, rng);
    auto centers = MakeQueryCenters(data_, kQueries, rng);
    for (const auto& c : centers) {
      boxes_.push_back(MakeBoxQuery(c, side));
      centers_.push_back(std::vector<float>(c.begin(), c.end()));
    }
    radius_ = CalibrateRangeRadius(data_, metric_, 0.01, 10, rng);

    // Single-threaded reference answers.
    for (size_t i = 0; i < kQueries; ++i) {
      ref_box_.push_back(tree_->SearchBox(boxes_[i]).ValueOrDie());
      ref_range_.push_back(
          tree_->SearchRange(centers_[i], radius_, metric_).ValueOrDie());
      ref_knn_.push_back(tree_->SearchKnn(centers_[i], 10, metric_).ValueOrDie());
    }
  }

  Dataset data_;
  std::unique_ptr<MemPagedFile> file_;
  std::unique_ptr<HybridTree> tree_;
  L2Metric metric_;
  std::vector<Box> boxes_;
  std::vector<std::vector<float>> centers_;
  double radius_ = 0.0;
  std::vector<std::vector<uint64_t>> ref_box_;
  std::vector<std::vector<uint64_t>> ref_range_;
  std::vector<std::vector<std::pair<double, uint64_t>>> ref_knn_;
};

TEST_F(ConcurrentSearchTest, ReadersMatchSingleThreadedRunExactly) {
  struct PerThread {
    std::vector<std::vector<uint64_t>> box;
    std::vector<std::vector<uint64_t>> range;
    std::vector<std::vector<std::pair<double, uint64_t>>> knn;
    Status error;
  };
  std::vector<PerThread> results(kReaders);

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      PerThread& mine = results[t];
      mine.box.resize(kQueries);
      mine.range.resize(kQueries);
      mine.knn.resize(kQueries);
      // Each thread visits the queries in its own shuffled order, so the
      // page-cache and scheduling interleavings differ per thread.
      std::vector<size_t> order(kQueries);
      std::iota(order.begin(), order.end(), size_t{0});
      Rng rng(1000 + t);
      for (size_t i = kQueries; i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextU64() % i]);
      }
      for (size_t i : order) {
        auto b = tree_->SearchBox(boxes_[i]);
        auto r = tree_->SearchRange(centers_[i], radius_, metric_);
        auto k = tree_->SearchKnn(centers_[i], 10, metric_);
        if (!b.ok() || !r.ok() || !k.ok()) {
          mine.error = !b.ok() ? b.status() : (!r.ok() ? r.status() : k.status());
          return;
        }
        mine.box[i] = std::move(b).ValueUnsafe();
        mine.range[i] = std::move(r).ValueUnsafe();
        mine.knn[i] = std::move(k).ValueUnsafe();
      }
    });
  }
  for (auto& th : readers) th.join();

  for (size_t t = 0; t < kReaders; ++t) {
    ASSERT_TRUE(results[t].error.ok()) << results[t].error.ToString();
    for (size_t i = 0; i < kQueries; ++i) {
      // Byte-identical: same ids in the same (deterministic traversal)
      // order, same distances.
      EXPECT_EQ(results[t].box[i], ref_box_[i]) << "thread " << t << " q" << i;
      EXPECT_EQ(results[t].range[i], ref_range_[i])
          << "thread " << t << " q" << i;
      EXPECT_EQ(results[t].knn[i], ref_knn_[i]) << "thread " << t << " q" << i;
    }
  }
}

/// Every answer one thread collects on a cold tree, in query order.
struct ColdAnswers {
  std::vector<std::vector<uint64_t>> box;
  std::vector<std::vector<uint64_t>> range;
  std::vector<std::vector<std::pair<double, uint64_t>>> knn;
  std::vector<std::vector<std::pair<double, uint64_t>>> cursor;
  Status error;
};

TEST_F(ConcurrentSearchTest, ColdTreeFirstTouchPublishesOnce) {
  // Four threads start together on a freshly reopened tree, so they race
  // to build and publish the same flat directory nodes and quantized
  // sidecars; the losers' copies are deleted (an ASan build reports any
  // that leak).
  ASSERT_TRUE(tree_->Flush().ok());
  tree_.reset();
  constexpr size_t kColdReaders = 4;
  constexpr size_t kCursorPulls = 10;
  const auto run_all = [&](const HybridTree& tree, ColdAnswers* out) {
    for (size_t i = 0; i < kQueries; ++i) {
      auto b = tree.SearchBox(boxes_[i]);
      auto r = tree.SearchRange(centers_[i], radius_, metric_);
      auto k = tree.SearchKnn(centers_[i], 10, metric_);
      if (!b.ok() || !r.ok() || !k.ok()) {
        out->error = !b.ok() ? b.status() : (!r.ok() ? r.status() : k.status());
        return;
      }
      out->box.push_back(std::move(b).ValueUnsafe());
      out->range.push_back(std::move(r).ValueUnsafe());
      out->knn.push_back(std::move(k).ValueUnsafe());
      HybridTree::KnnCursor cursor = tree.OpenKnnCursor(centers_[i], metric_);
      out->cursor.emplace_back();
      for (size_t n = 0; n < kCursorPulls; ++n) {
        auto next = cursor.Next();
        if (!next.ok()) {
          out->error = next.status();
          return;
        }
        if (!next->has_value()) break;
        out->cursor.back().push_back(**next);
      }
    }
  };

  // Serial reference on its own cold tree.
  ColdAnswers serial;
  size_t serial_sidecars = 0;
  {
    auto tree = HybridTree::Open(file_.get()).ValueOrDie();
    run_all(*tree, &serial);
    serial_sidecars = tree->CachedQuantPages();
  }
  ASSERT_TRUE(serial.error.ok()) << serial.error.ToString();
  ASSERT_GT(serial_sidecars, 0u);
  EXPECT_EQ(serial.box, ref_box_);
  EXPECT_EQ(serial.range, ref_range_);
  EXPECT_EQ(serial.knn, ref_knn_);

  auto tree = HybridTree::Open(file_.get()).ValueOrDie();
  ASSERT_EQ(tree->CachedQuantPages(), 0u);
  std::vector<ColdAnswers> results(kColdReaders);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kColdReaders; ++t) {
    readers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kColdReaders) std::this_thread::yield();
      run_all(*tree, &results[t]);
    });
  }
  for (auto& th : readers) th.join();

  for (size_t t = 0; t < kColdReaders; ++t) {
    ASSERT_TRUE(results[t].error.ok()) << results[t].error.ToString();
    EXPECT_EQ(results[t].box, serial.box) << "thread " << t;
    EXPECT_EQ(results[t].range, serial.range) << "thread " << t;
    EXPECT_EQ(results[t].knn, serial.knn) << "thread " << t;
    EXPECT_EQ(results[t].cursor, serial.cursor) << "thread " << t;
  }
  // One sidecar per scanned page, however many threads raced for it.
  EXPECT_EQ(tree->CachedQuantPages(), serial_sidecars);
  EXPECT_TRUE(tree->pool().AssertNoPins().ok());
}

TEST(ConcurrentBufferPoolTest, ConcurrentFetchesAccountExactly) {
  // Hammer one pool from many threads; pins stay balanced and logical
  // reads are counted exactly once per Fetch.
  MemPagedFile file(256);
  BufferPool pool(&file, 0);
  constexpr size_t kPages = 64;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    PageHandle h = pool.New().ValueOrDie();
    h.data()[0] = static_cast<uint8_t>(i);
    h.MarkDirty();
    ids.push_back(h.id());
  }
  ASSERT_TRUE(pool.EvictAll().ok());  // next fetches are physical
  pool.ResetStats();

  constexpr size_t kThreads = 8;
  constexpr size_t kFetchesPerThread = 2000;
  std::vector<IoStats> per_thread(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> data_mismatches{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      IoStatsScope scope(&per_thread[t]);
      Rng rng(t + 1);
      for (size_t i = 0; i < kFetchesPerThread; ++i) {
        const size_t pick = rng.NextU64() % kPages;
        auto h = pool.Fetch(ids[pick]);
        if (!h.ok() || h->data()[0] != static_cast<uint8_t>(pick)) {
          data_mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(data_mismatches.load(), 0);
  EXPECT_EQ(pool.pinned_frames(), 0u);
  const IoStats total = pool.stats();
  EXPECT_EQ(total.logical_reads, kThreads * kFetchesPerThread);
  // Unbounded pool: each page misses at most once across all threads.
  EXPECT_LE(total.physical_reads, kPages);
  IoStats sum;
  for (const IoStats& io : per_thread) sum.Accumulate(io);
  EXPECT_EQ(sum.logical_reads, total.logical_reads);
  EXPECT_EQ(sum.physical_reads, total.physical_reads);

  // The fetched frames stay cached: the next fetch is a hit.
  pool.ResetStats();
  { PageHandle h = pool.Fetch(ids[0]).ValueOrDie(); }
  EXPECT_EQ(pool.stats().physical_reads, 0u);
}

}  // namespace
}  // namespace ht

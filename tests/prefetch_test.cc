// Integration tests for the prefetching I/O pipeline (core + storage +
// serve): prefetch is a pure I/O-scheduling optimisation, so every query
// must return byte-identical results — and identical logical-read counts —
// at any prefetch depth, while the number of blocking read round trips
// drops, and no batch may request a page the search rules out from its
// sidecar. Runs clean under ThreadSanitizer (the CI tsan job executes this
// binary).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"
#include "exec/thread_pool.h"
#include "geometry/kernels/kernels.h"
#include "geometry/metrics.h"
#include "serve/sharded_index.h"
#include "storage/buffer_pool.h"
#include "storage/latency_injecting_file.h"
#include "storage/paged_file.h"

namespace ht {
namespace {

constexpr uint32_t kDim = 8;
constexpr size_t kPoints = 3000;
constexpr size_t kQueries = 12;
constexpr size_t kK = 10;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "prefetch_test_" + name;
}

/// Per-depth answers for one pass of cold box + range + kNN queries.
struct Answers {
  std::vector<std::vector<uint64_t>> box;
  std::vector<std::vector<uint64_t>> range;
  std::vector<std::vector<std::pair<double, uint64_t>>> knn;
  uint64_t logical_reads = 0;
};

/// FOURIER tree persisted into a MemPagedFile; every test reopens those
/// bytes through a small buffer pool so queries actually miss.
class PrefetchIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    data_ = GenFourier(kPoints, kDim, rng);
    file_ = std::make_unique<MemPagedFile>();
    HybridTreeOptions opts;
    opts.dim = kDim;
    auto tree = BulkLoad(opts, file_.get(), data_).ValueOrDie();
    ASSERT_TRUE(tree->Flush().ok());
    pool_pages_ = std::max<size_t>(8, file_->page_count() / 10);

    const double side = CalibrateBoxSide(data_, 0.01, 10, rng);
    auto centers = MakeQueryCenters(data_, kQueries, rng);
    for (const auto& c : centers) {
      boxes_.push_back(MakeBoxQuery(c, side));
      centers_.push_back(std::vector<float>(c.begin(), c.end()));
    }
    radius_ = CalibrateRangeRadius(data_, metric_, 0.01, 10, rng);
  }

  /// Opens the persisted tree with the given prefetch depth and runs every
  /// query cold (EvictAll first), collecting exact results.
  Answers RunCold(PagedFile* file, size_t depth) {
    Answers a;
    auto tree = HybridTree::Open(file, pool_pages_).ValueOrDie();
    tree->SetPrefetchDepth(depth);
    tree->pool().ResetStats();
    SearchScratch scratch;
    for (size_t i = 0; i < kQueries; ++i) {
      EXPECT_TRUE(tree->pool().EvictAll().ok());
      std::vector<uint64_t> ids;
      EXPECT_TRUE(tree->SearchBoxInto(boxes_[i], &scratch, &ids).ok());
      a.box.push_back(ids);
      EXPECT_TRUE(tree->pool().EvictAll().ok());
      EXPECT_TRUE(tree->SearchRangeInto(centers_[i], radius_, metric_,
                                        &scratch, &ids).ok());
      a.range.push_back(ids);
      EXPECT_TRUE(tree->pool().EvictAll().ok());
      std::vector<std::pair<double, uint64_t>> nn;
      EXPECT_TRUE(
          tree->SearchKnnInto(centers_[i], kK, metric_, &scratch, &nn).ok());
      a.knn.push_back(nn);
    }
    a.logical_reads = tree->pool().stats().logical_reads;
    return a;
  }

  Dataset data_;
  std::unique_ptr<MemPagedFile> file_;
  size_t pool_pages_ = 0;
  L2Metric metric_;
  std::vector<Box> boxes_;
  std::vector<std::vector<float>> centers_;
  double radius_ = 0.0;
};

TEST_F(PrefetchIntegrationTest, ColdQueriesByteIdenticalAcrossDepths) {
  Answers base = RunCold(file_.get(), 0);
  // The workloads must actually select something, or identity is vacuous.
  size_t box_hits = 0, range_hits = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    box_hits += base.box[i].size();
    range_hits += base.range[i].size();
    ASSERT_EQ(base.knn[i].size(), kK);
  }
  ASSERT_GT(box_hits, 0u);
  ASSERT_GT(range_hits, 0u);

  for (size_t depth : {2u, 8u}) {
    Answers got = RunCold(file_.get(), depth);
    for (size_t i = 0; i < kQueries; ++i) {
      EXPECT_EQ(got.box[i], base.box[i]) << "depth " << depth << " q" << i;
      EXPECT_EQ(got.range[i], base.range[i]) << "depth " << depth << " q" << i;
      EXPECT_EQ(got.knn[i], base.knn[i]) << "depth " << depth << " q" << i;
    }
    // Prefetch counts no logical reads, and a page is ruled out from its
    // sidecar alike at every depth: the pages a query pins are invariant
    // under the pipeline.
    EXPECT_EQ(got.logical_reads, base.logical_reads) << "depth " << depth;
  }
}

// Box and range decide at admission which child pages their sidecars rule
// out, so a prefetch batch never requests a page the search then skips:
// with a pool that holds a whole query, every prefetched page is pinned.
TEST_F(PrefetchIntegrationTest, PrefetchRequestsNoRuledOutPage) {
  auto tree = HybridTree::Open(file_.get(), file_->page_count()).ValueOrDie();
  tree->SetPrefetchDepth(8);
  SearchScratch sc;
  std::vector<uint64_t> ids;
  std::vector<std::pair<double, uint64_t>> nn;
  // Warm sidecars: a metric scan builds one on every data page it pins.
  for (size_t i = 0; i < kQueries; ++i) {
    const std::vector<float>& c = centers_[i];
    ASSERT_TRUE(tree->SearchKnnInto(c, kK, metric_, &sc, &nn).ok());
    ASSERT_TRUE(tree->SearchRangeInto(c, radius_, metric_, &sc, &ids).ok());
  }
  uint64_t issued = 0, skipped = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    for (const bool box : {true, false}) {
      ASSERT_TRUE(tree->pool().EvictAll().ok());
      tree->pool().ResetStats();
      const std::vector<float>& c = centers_[i];
      if (box) {
        ASSERT_TRUE(tree->SearchBoxInto(boxes_[i], &sc, &ids).ok());
      } else {
        ASSERT_TRUE(tree->SearchRangeInto(c, radius_, metric_, &sc, &ids).ok());
      }
      const IoStats s = tree->pool().stats();
      EXPECT_EQ(s.prefetch_issued, s.prefetch_hits)
          << (box ? "box" : "range") << " q" << i;
      issued += s.prefetch_issued;
      skipped += s.quant_skipped_pages;
    }
  }
  EXPECT_GT(issued, 0u);
  if (kernels::ActiveTier() != kernels::SimdTier::kScalar) {
    // Sidecars exist only at a SIMD tier; then some pages are ruled out.
    EXPECT_GT(skipped, 0u);
  }
}

TEST_F(PrefetchIntegrationTest, PrefetchReducesBlockingRoundTrips) {
  std::vector<uint64_t> trips;
  for (size_t depth : {0u, 8u}) {
    LatencyInjectingPagedFile latfile(file_.get());  // zero latency: counting
    auto tree = HybridTree::Open(&latfile, pool_pages_).ValueOrDie();
    tree->SetPrefetchDepth(depth);
    latfile.ResetReadCalls();
    SearchScratch scratch;
    std::vector<std::pair<double, uint64_t>> nn;
    for (size_t i = 0; i < kQueries; ++i) {
      ASSERT_TRUE(tree->pool().EvictAll().ok());
      ASSERT_TRUE(
          tree->SearchKnnInto(centers_[i], kK, metric_, &scratch, &nn).ok());
    }
    trips.push_back(latfile.read_calls());
  }
  // Depth 8 batches the frontier: strictly fewer blocking round trips than
  // the one-page-per-miss baseline.
  EXPECT_LT(trips[1], trips[0]);
}

TEST_F(PrefetchIntegrationTest, DiskBackedTreeIdenticalAcrossDepths) {
  const std::string path = TempPath("disk.htf");
  {
    auto disk = DiskPagedFile::Create(path, kDefaultPageSize).ValueOrDie();
    HybridTreeOptions opts;
    opts.dim = kDim;
    auto tree = BulkLoad(opts, disk.get(), data_).ValueOrDie();
    ASSERT_TRUE(tree->Flush().ok());
    ASSERT_TRUE(disk->Sync().ok());
  }
  auto disk = DiskPagedFile::Open(path).ValueOrDie();
  Answers base = RunCold(disk.get(), 0);
  Answers got = RunCold(disk.get(), 8);
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(got.box[i], base.box[i]) << "q" << i;
    EXPECT_EQ(got.range[i], base.range[i]) << "q" << i;
    EXPECT_EQ(got.knn[i], base.knn[i]) << "q" << i;
  }
  EXPECT_EQ(got.logical_reads, base.logical_reads);
  std::remove(path.c_str());
}

TEST_F(PrefetchIntegrationTest, ShardedIoPoolMatchesSerialReference) {
  Answers base = RunCold(file_.get(), 0);

  // The serving path with a dedicated prefetch pool: every shard prefetches
  // at depth 8 through a small buffer pool, so scatter tasks miss and
  // their fills run on io_pool while the query pool computes.
  HybridTreeOptions opts;
  opts.dim = kDim;
  opts.prefetch_depth = 8;
  opts.buffer_pool_pages = pool_pages_;
  ThreadPool query_pool(4);
  ThreadPool io_pool(2);
  ShardedIndexOptions so;
  so.shards = 2;
  so.io_pool = &io_pool;
  auto index_r = ShardedIndex::Build(opts, so, data_, &query_pool);
  ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
  auto index = std::move(index_r).ValueUnsafe();

  // The serving tier answers in canonical order (ids ascending, k-NN by
  // (distance, id)); the serial reference walks one tree in its own order.
  const auto sorted = [](std::vector<uint64_t> ids) {
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const ExecOptions exec;
  for (size_t i = 0; i < kQueries; ++i) {
    std::vector<uint64_t> ids;
    ASSERT_TRUE(index->SearchBox(boxes_[i], exec, &ids).ok());
    EXPECT_EQ(ids, sorted(base.box[i])) << "q" << i;
    ASSERT_TRUE(
        index->SearchRange(centers_[i], radius_, metric_, exec, &ids).ok());
    EXPECT_EQ(ids, sorted(base.range[i])) << "q" << i;
    std::vector<std::pair<double, uint64_t>> nn;
    ASSERT_TRUE(index->SearchKnn(centers_[i], kK, metric_, exec, &nn).ok());
    EXPECT_EQ(nn, base.knn[i]) << "q" << i;
  }
  IoStats io;
  for (size_t s = 0; s < index->shards(); ++s) {
    io.Accumulate(index->shard_io(s));
  }
  EXPECT_GT(io.physical_reads, 0u) << "queries never missed the pool";
}

TEST_F(PrefetchIntegrationTest, ShardedBuildRejectsIoPoolEqualToScatterPool) {
  // Prefetch fills queued behind the shard tasks waiting on them would
  // deadlock, so Build refuses one pool in both roles.
  HybridTreeOptions opts;
  opts.dim = kDim;
  ThreadPool pool(2);
  ShardedIndexOptions so;
  so.shards = 2;
  so.io_pool = &pool;
  auto built = ShardedIndex::Build(opts, so, data_, &pool);
  EXPECT_TRUE(built.status().IsInvalidArgument());
}

}  // namespace
}  // namespace ht

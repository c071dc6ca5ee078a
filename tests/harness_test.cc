// Tests for the evaluation harness (cost measurement + normalization).

#include "eval/harness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "baselines/seqscan.h"
#include "data/generators.h"
#include "data/workload.h"
#include "eval/hybrid_adapter.h"
#include "geometry/kernels/kernels.h"

namespace ht {
namespace {

TEST(HarnessTest, BuildsEveryKind) {
  Rng rng(1501);
  Dataset data = GenUniform(500, 4, rng);
  BuildConfig config;
  config.page_size = 1024;
  for (IndexKind kind :
       {IndexKind::kHybrid, IndexKind::kHybridVam, IndexKind::kHybridNoEls,
        IndexKind::kSrTree, IndexKind::kHbTree, IndexKind::kKdbTree,
        IndexKind::kRStarTree, IndexKind::kSeqScan}) {
    auto b = BuildIndex(kind, data, config);
    ASSERT_TRUE(b.ok()) << IndexKindName(kind);
    EXPECT_EQ(b.ValueOrDie().index->size(), 500u);
    EXPECT_GT(b.ValueOrDie().build_seconds, 0.0);
    EXPECT_FALSE(IndexKindName(kind).empty());
  }
}

TEST(HarnessTest, WorkloadCostsAreAveraged) {
  Rng rng(1502);
  Dataset data = GenUniform(2000, 3, rng);
  BuildConfig config;
  config.page_size = 512;
  auto b = BuildIndex(IndexKind::kSeqScan, data, config).ValueOrDie();
  std::vector<Box> queries(5, Box::UnitCube(3));
  QueryCosts costs = RunBoxWorkload(b.index.get(), queries).ValueOrDie();
  EXPECT_EQ(costs.queries, 5u);
  EXPECT_DOUBLE_EQ(costs.avg_results, 2000.0);
  // The scan reads all pages for every query.
  auto* scan = dynamic_cast<SeqScan*>(b.index.get());
  ASSERT_NE(scan, nullptr);
  EXPECT_DOUBLE_EQ(costs.avg_accesses, static_cast<double>(scan->data_pages()));
}

TEST(HarnessTest, NormalizationMatchesPaperConventions) {
  QueryCosts scan;
  scan.avg_accesses = 1000;
  scan.avg_cpu_seconds = 0.02;
  // The scan itself: sequential I/O costs 1/10 per page -> 0.1; CPU 1.0.
  NormalizedCosts n1 = Normalize(scan, /*sequential_io=*/true, 1000, scan);
  EXPECT_DOUBLE_EQ(n1.io, 0.1);
  EXPECT_DOUBLE_EQ(n1.cpu, 1.0);
  // An index that reads 50 random pages: 50/1000 = 0.05; CPU ratio 0.25.
  QueryCosts index;
  index.avg_accesses = 50;
  index.avg_cpu_seconds = 0.005;
  NormalizedCosts n2 = Normalize(index, /*sequential_io=*/false, 1000, scan);
  EXPECT_DOUBLE_EQ(n2.io, 0.05);
  EXPECT_DOUBLE_EQ(n2.cpu, 0.25);
}

TEST(HarnessTest, RangeAndKnnWorkloads) {
  Rng rng(1503);
  Dataset data = GenClustered(1500, 4, 4, 0.08, rng);
  BuildConfig config;
  config.page_size = 1024;
  auto b = BuildIndex(IndexKind::kHybrid, data, config).ValueOrDie();
  auto centers = MakeQueryCenters(data, 8, rng);
  L1Metric l1;
  QueryCosts range = RunRangeWorkload(b.index.get(), centers, 0.3, l1)
                         .ValueOrDie();
  EXPECT_EQ(range.queries, 8u);
  EXPECT_GT(range.avg_accesses, 0.0);
  QueryCosts knn =
      RunKnnWorkload(b.index.get(), centers, 5, l1).ValueOrDie();
  EXPECT_DOUBLE_EQ(knn.avg_results, 5.0);
}

/// A hybrid tree built straight from options (the harness's BuildConfig
/// has no pool or sidecar knob).
std::unique_ptr<HybridIndexAdapter> BuildHybrid(const Dataset& data,
                                                bool sidecars,
                                                MemPagedFile* file) {
  HybridTreeOptions o;
  o.dim = data.dim();
  o.page_size = file->page_size();
  o.els_bits = 8;
  o.buffer_pool_pages = 16;
  o.quant_sidecars = sidecars;
  auto index = HybridIndexAdapter::Create(o, file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(index->Insert(data.Row(i), i).ok());
  }
  return index;
}

// The paper's figure of merit is pages visited. A data page the hybrid
// tree rules out from its sidecar is not fetched, but it is still visited,
// so the harness must count the same accesses with sidecars on as with
// them off (the baselines have none).
TEST(HarnessTest, SidecarsLeavePagesVisitedUnchanged) {
  Rng rng(1505);
  Dataset data = GenFourier(3000, 16, rng);
  MemPagedFile file_on(kDefaultPageSize), file_off(kDefaultPageSize);
  auto on = BuildHybrid(data, /*sidecars=*/true, &file_on);
  auto off = BuildHybrid(data, /*sidecars=*/false, &file_off);

  const double side = CalibrateBoxSide(data, 0.01, 10, rng);
  auto centers = MakeQueryCenters(data, 12, rng);
  std::vector<Box> boxes;
  for (const auto& c : centers) boxes.push_back(MakeBoxQuery(c, side));
  L2Metric l2;
  const double radius = CalibrateRangeRadius(data, l2, 0.01, 10, rng);

  const auto expect_same = [](const QueryCosts& on, const QueryCosts& off) {
    EXPECT_EQ(on.avg_accesses, off.avg_accesses);
    EXPECT_EQ(on.avg_results, off.avg_results);
  };
  // k-NN and range first, so that the box queries meet sidecars.
  expect_same(RunKnnWorkload(on.get(), centers, 10, l2).ValueOrDie(),
              RunKnnWorkload(off.get(), centers, 10, l2).ValueOrDie());
  expect_same(RunRangeWorkload(on.get(), centers, radius, l2).ValueOrDie(),
              RunRangeWorkload(off.get(), centers, radius, l2).ValueOrDie());
  expect_same(RunBoxWorkload(on.get(), boxes).ValueOrDie(),
              RunBoxWorkload(off.get(), boxes).ValueOrDie());

  // Per query: fetched plus ruled-out pages with sidecars equal the pages
  // fetched without them.
  uint64_t skipped_knn = 0, skipped_range = 0, skipped_box = 0;
  for (size_t q = 0; q < centers.size(); ++q) {
    const auto per_query = [&](auto run) {
      on->pool().ResetStats();
      off->pool().ResetStats();
      run(on.get());
      run(off.get());
      const IoStats s_on = on->pool().stats();
      const IoStats s_off = off->pool().stats();
      EXPECT_EQ(s_on.logical_reads + s_on.quant_skipped_pages,
                s_off.logical_reads)
          << "query " << q;
      EXPECT_EQ(s_off.quant_skipped_pages, 0u);
      return s_on.quant_skipped_pages;
    };
    skipped_knn += per_query([&](SpatialIndex* i) {
      EXPECT_TRUE(i->SearchKnn(centers[q], 10, l2).ok());
    });
    skipped_range += per_query([&](SpatialIndex* i) {
      EXPECT_TRUE(i->SearchRange(centers[q], radius, l2).ok());
    });
    skipped_box += per_query([&](SpatialIndex* i) {
      EXPECT_TRUE(i->SearchBox(boxes[q]).ok());
    });
  }
  if (kernels::ActiveTier() != kernels::SimdTier::kScalar) {
    // Sidecars are built only at a SIMD tier; then pages are ruled out.
    EXPECT_GT(skipped_knn, 0u) << "k-NN never ruled out a page";
    EXPECT_GT(skipped_range, 0u) << "range never ruled out a page";
    EXPECT_GT(skipped_box, 0u) << "box never ruled out a page";
  }
}

TEST(HarnessTest, EnvSizeParsesAndFallsBack) {
  ::unsetenv("HT_TEST_ENVSIZE");
  EXPECT_EQ(EnvSize("HT_TEST_ENVSIZE", 123), 123u);
  ::setenv("HT_TEST_ENVSIZE", "4567", 1);
  EXPECT_EQ(EnvSize("HT_TEST_ENVSIZE", 123), 4567u);
  ::setenv("HT_TEST_ENVSIZE", "not-a-number", 1);
  EXPECT_EQ(EnvSize("HT_TEST_ENVSIZE", 123), 123u);
  ::setenv("HT_TEST_ENVSIZE", "", 1);
  EXPECT_EQ(EnvSize("HT_TEST_ENVSIZE", 123), 123u);
  ::unsetenv("HT_TEST_ENVSIZE");
}

TEST(HarnessTest, TablePrinterNumFormatting) {
  EXPECT_EQ(TablePrinter::Num(0.12345, 2), "0.12");
  EXPECT_EQ(TablePrinter::Num(3.0, 0), "3");
  EXPECT_EQ(TablePrinter::Num(1234.5678, 1), "1234.6");
}

TEST(HarnessTest, HybridAdapterExposesTree) {
  Rng rng(1504);
  Dataset data = GenUniform(300, 2, rng);
  BuildConfig config;
  config.page_size = 512;
  auto b = BuildIndex(IndexKind::kHybrid, data, config).ValueOrDie();
  auto* adapter = dynamic_cast<HybridIndexAdapter*>(b.index.get());
  ASSERT_NE(adapter, nullptr);
  EXPECT_TRUE(adapter->tree().CheckInvariants().ok());
  EXPECT_EQ(adapter->Name(), "HybridTree");
  // Delete passthrough.
  EXPECT_TRUE(adapter->Delete(data.Row(0), 0).ok());
  EXPECT_EQ(adapter->size(), 299u);
}

}  // namespace
}  // namespace ht

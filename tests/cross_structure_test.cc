// Cross-structure integration tests: every index structure must return
// exactly the same answers on a shared workload — the property that makes
// the benchmark comparisons meaningful.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/x_tree.h"
#include "data/generators.h"
#include "data/workload.h"
#include "core/node.h"
#include "eval/harness.h"

namespace ht {
namespace {

struct Workbench {
  Dataset data;
  std::vector<Box> boxes;
  std::vector<std::vector<float>> centers;

  Workbench(int dataset, uint32_t dim, size_t n, uint64_t seed) {
    Rng rng(seed);
    switch (dataset) {
      case 0:
        data = GenUniform(n, dim, rng);
        break;
      case 1:
        data = GenClustered(n, dim, 5, 0.06, rng);
        break;
      default:
        data = GenColhist(n, dim, rng);
        data.NormalizeUnitCube();
    }
    centers = MakeQueryCenters(data, 12, rng);
    for (const auto& c : centers) {
      boxes.push_back(MakeBoxQuery(c, 0.25));
    }
  }
};

class CrossStructureTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(CrossStructureTest, AllStructuresAgree) {
  const int dataset = std::get<0>(GetParam());
  const uint32_t dim = std::get<1>(GetParam());
  Workbench wb(dataset, dim, 2500, 1300 + dataset * 17 + dim);
  BuildConfig config;
  config.page_size = 1024;

  const IndexKind kinds[] = {IndexKind::kHybrid,    IndexKind::kHybridVam,
                             IndexKind::kHybridNoEls, IndexKind::kSrTree,
                             IndexKind::kHbTree,    IndexKind::kKdbTree,
                             IndexKind::kRStarTree, IndexKind::kSeqScan};
  std::vector<IndexBundle> bundles;
  for (IndexKind kind : kinds) {
    auto b = BuildIndex(kind, wb.data, config);
    ASSERT_TRUE(b.ok()) << IndexKindName(kind) << ": "
                        << b.status().ToString();
    ASSERT_EQ(b.ValueOrDie().index->size(), wb.data.size())
        << IndexKindName(kind);
    bundles.push_back(std::move(b).ValueOrDie());
  }

  // Box queries: everyone must match brute force.
  for (size_t q = 0; q < wb.boxes.size(); ++q) {
    const auto expect = BruteForceBox(wb.data, wb.boxes[q]);
    for (auto& b : bundles) {
      auto got = b.index->SearchBox(wb.boxes[q]).ValueOrDie();
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, expect) << b.index->Name() << " box query " << q;
    }
  }

  // Distance-range queries (hB included — we implement them even though
  // the paper's code did not).
  L1Metric l1;
  for (size_t q = 0; q < 4; ++q) {
    const auto expect = BruteForceRange(wb.data, wb.centers[q], 0.35, l1);
    for (auto& b : bundles) {
      auto got_or = b.index->SearchRange(wb.centers[q], 0.35, l1);
      ASSERT_TRUE(got_or.ok()) << b.index->Name();
      auto got = std::move(got_or).ValueOrDie();
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, expect) << b.index->Name() << " range query " << q;
    }
  }

  // k-NN distances.
  L2Metric l2;
  for (size_t q = 0; q < 4; ++q) {
    const auto expect = BruteForceKnn(wb.data, wb.centers[q], 7, l2);
    for (auto& b : bundles) {
      auto got = b.index->SearchKnn(wb.centers[q], 7, l2).ValueOrDie();
      ASSERT_EQ(got.size(), expect.size()) << b.index->Name();
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i].first, expect[i].first, 1e-9)
            << b.index->Name() << " knn query " << q << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DataAndDims, CrossStructureTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(4u, 8u, 16u)));

/// Every structure covers [0,1]^dim only: a row with a NaN coordinate or
/// one outside the cube is refused and leaves size() unchanged. A stored
/// NaN row could come back as a k = 1 answer at distance NaN.
TEST(CrossStructureTest, EveryStructureRefusesRowsOutsideTheUnitCube) {
  const uint32_t dim = 2;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::vector<float>> bad = {{nan, 0.5f}, {0.5f, 1.5f}};
  Rng rng(2025);
  const Dataset data = GenUniform(40, dim, rng);
  BuildConfig config;
  config.page_size = 1024;
  L2Metric l2;
  auto check = [&](SpatialIndex* index) {
    for (const auto& row : bad) {
      EXPECT_EQ(index->Insert(row, 1000).code(), StatusCode::kInvalidArgument)
          << index->Name() << " row (" << row[0] << ", " << row[1] << ")";
      EXPECT_EQ(index->size(), data.size()) << index->Name();
    }
    const auto got = index->SearchKnn(data.Row(0), 1, l2).ValueOrDie();
    ASSERT_EQ(got.size(), 1u) << index->Name();
    EXPECT_EQ(got[0].first, 0.0) << index->Name();
  };
  for (IndexKind kind :
       {IndexKind::kHybrid, IndexKind::kHybridVam, IndexKind::kHybridNoEls,
        IndexKind::kSrTree, IndexKind::kHbTree, IndexKind::kKdbTree,
        IndexKind::kRStarTree, IndexKind::kSeqScan}) {
    auto b = BuildIndex(kind, data, config).ValueOrDie();
    check(b.index.get());
  }
  MemPagedFile file(config.page_size);
  auto xtree = XTree::Create(dim, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(xtree->Insert(data.Row(i), i).ok());
  }
  check(xtree.get());
}

/// The access-count ordering that the paper's whole argument rests on must
/// show up on a high-dimensional workload: the hybrid tree reads fewer
/// pages than the hB-tree, and everyone reads fewer than the number of
/// pages a scan reads x10 (the random-access-cost equivalent).
TEST(CrossStructureTest, HybridReadsFewestPagesAtHighDim) {
  Workbench wb(2, 32, 6000, 4242);
  BuildConfig config;  // 4096-byte pages, 8-bit ELS
  const double scan_pages = std::ceil(
      static_cast<double>(wb.data.size()) /
      static_cast<double>(DataNode::Capacity(32, config.page_size)));

  auto measure = [&](IndexKind kind) {
    auto b = BuildIndex(kind, wb.data, config).ValueOrDie();
    uint64_t total = 0;
    for (const auto& box : wb.boxes) {
      b.index->pool().ResetStats();
      (void)b.index->SearchBox(box).ValueOrDie();
      total += b.index->pool().stats().logical_reads;
    }
    return static_cast<double>(total) / static_cast<double>(wb.boxes.size());
  };

  const double hybrid = measure(IndexKind::kHybrid);
  const double hybrid_noels = measure(IndexKind::kHybridNoEls);
  const double hb = measure(IndexKind::kHbTree);
  EXPECT_LT(hybrid, hb);
  EXPECT_LT(hybrid, hybrid_noels);  // ELS must pay for itself here
  EXPECT_LT(hybrid, 10.0 * scan_pages);
}

}  // namespace
}  // namespace ht

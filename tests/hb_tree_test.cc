// Tests for the hB-tree baseline: routing correctness under holey-brick
// splits and split posting is the critical property, and the parent map
// must match the references a full traversal finds (VerifyParentIndex).

#include "baselines/hb_tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/generators.h"
#include "data/workload.h"

namespace ht {
namespace {

TEST(HbTreeTest, MatchesBruteForceBoxSearch) {
  Rng rng(541);
  Dataset data = GenUniform(3000, 4, rng);
  MemPagedFile file(512);
  auto tree = HbTree::Create(4, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data.Row(i), i).ok()) << i;
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  ASSERT_TRUE(tree->VerifyParentIndex().ok());
  for (int q = 0; q < 30; ++q) {
    auto centers = MakeQueryCenters(data, 1, rng);
    Box query = MakeBoxQuery(centers[0], 0.3);
    auto got = tree->SearchBox(query).ValueOrDie();
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, BruteForceBox(data, query)) << q;
  }
}

TEST(HbTreeTest, SkewedDataStressesHoleyBricks) {
  // Heavily skewed clusters force uneven medians -> multi-constraint
  // corner extractions -> redundant references. Routing must survive.
  Rng rng(547);
  Dataset data = GenClustered(6000, 5, 3, 0.02, rng);
  MemPagedFile file(512);
  auto tree = HbTree::Create(5, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data.Row(i), i).ok()) << i;
    if (i % 1000 == 999) {
      ASSERT_TRUE(tree->CheckInvariants().ok()) << "after " << i;
      ASSERT_TRUE(tree->VerifyParentIndex().ok()) << "after " << i;
    }
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  ASSERT_TRUE(tree->VerifyParentIndex().ok());
  for (int q = 0; q < 20; ++q) {
    auto centers = MakeQueryCenters(data, 1, rng);
    Box query = MakeBoxQuery(centers[0], 0.2);
    auto got = tree->SearchBox(query).ValueOrDie();
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, BruteForceBox(data, query)) << q;
  }
  HbStats stats = tree->ComputeStats().ValueOrDie();
  EXPECT_GT(stats.data_nodes, 0u);
  EXPECT_GT(stats.index_nodes, 0u);
  // Utilization guarantee from [1/3, 2/3] extraction.
  EXPECT_GE(stats.min_data_utilization, 0.33 - 2.0 / 15.0);
}

TEST(HbTreeTest, RangeAndKnnMatchBruteForce) {
  Rng rng(557);
  Dataset data = GenClustered(2000, 3, 4, 0.06, rng);
  MemPagedFile file(512);
  auto tree = HbTree::Create(3, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data.Row(i), i).ok());
  }
  L1Metric l1;
  for (int q = 0; q < 10; ++q) {
    auto centers = MakeQueryCenters(data, 1, rng);
    auto got = tree->SearchRange(centers[0], 0.3, l1).ValueOrDie();
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, BruteForceRange(data, centers[0], 0.3, l1));
    auto got_k = tree->SearchKnn(centers[0], 10, l1).ValueOrDie();
    auto want_k = BruteForceKnn(data, centers[0], 10, l1);
    ASSERT_EQ(got_k.size(), want_k.size());
    for (size_t i = 0; i < got_k.size(); ++i) {
      ASSERT_NEAR(got_k[i].first, want_k[i].first, 1e-9);
    }
  }
}

// A posted split leaves one child under several kd leaves of its parent,
// so no one leaf's kd region bounds that child's rows: range and k-NN
// must clip the child's own regions from the unit cube, or they prune
// rows that are in range.
TEST(HbTreeTest, RangeAndKnnFindRowsOfAChildUnderSeveralLeaves) {
  Rng rng(2);
  Dataset data = GenColhist(3000, 64, rng);
  data.NormalizeUnitCube();
  MemPagedFile file(kDefaultPageSize);
  auto tree = HbTree::Create(64, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data.Row(i), i).ok());
  }
  ASSERT_TRUE(tree->VerifyParentIndex().ok());
  L1Metric l1;
  const double radius = CalibrateRangeRadius(data, l1, 0.002, 20, rng);
  const auto centers = MakeQueryCenters(data, 100, rng);
  for (size_t q = 0; q < centers.size(); ++q) {
    auto got = tree->SearchRange(centers[q], radius, l1).ValueOrDie();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteForceRange(data, centers[q], radius, l1)) << q;
    const auto got_k = tree->SearchKnn(centers[q], 10, l1).ValueOrDie();
    const auto want_k = BruteForceKnn(data, centers[q], 10, l1);
    ASSERT_EQ(got_k.size(), want_k.size()) << q;
    for (size_t i = 0; i < got_k.size(); ++i) {
      EXPECT_EQ(got_k[i].first, want_k[i].first) << q << " " << i;
    }
  }
}

TEST(HbTreeTest, DeleteNotSupported) {
  MemPagedFile file(512);
  auto tree = HbTree::Create(2, &file).ValueOrDie();
  const std::vector<float> p = {0.5f, 0.5f};
  ASSERT_TRUE(tree->Insert(p, 1).ok());
  EXPECT_EQ(tree->Delete(p, 1).code(), StatusCode::kNotSupported);
}

TEST(HbTreeTest, RedundantReferencesAreCounted) {
  // Table 1: hB-trees pay storage redundancy. On skewed data, at least
  // some splits need multiple constraints, creating multi-references.
  Rng rng(563);
  // Exponentially skewed data maximizes uneven medians.
  const uint32_t dim = 4;
  Dataset data(dim, 12000);
  for (size_t i = 0; i < data.size(); ++i) {
    auto row = data.MutableRow(i);
    for (uint32_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(
          std::min(1.0, rng.NextExponential(8.0)));
    }
  }
  MemPagedFile file(512);
  auto tree = HbTree::Create(dim, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data.Row(i), i).ok());
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  ASSERT_TRUE(tree->VerifyParentIndex().ok());
  HbStats stats = tree->ComputeStats().ValueOrDie();
  EXPECT_GT(stats.multi_step_splits, 0u);
  EXPECT_GT(stats.redundant_refs + stats.multi_parent_nodes, 0u);
}

TEST(HbTreeTest, DuplicatePointsRejectedCleanly) {
  MemPagedFile file(512);
  auto tree = HbTree::Create(2, &file).ValueOrDie();
  const std::vector<float> p = {0.25f, 0.75f};
  const size_t cap = tree->data_node_capacity();
  Status last = Status::OK();
  for (size_t i = 0; i <= cap + 1 && last.ok(); ++i) {
    last = tree->Insert(p, i);
  }
  EXPECT_FALSE(last.ok());
}

}  // namespace
}  // namespace ht

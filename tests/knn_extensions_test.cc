// Tests for the k-NN extensions: the incremental cursor (distance
// browsing) and (1+epsilon)-approximate search (the paper's future work).

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"

namespace ht {
namespace {

struct Fixture {
  MemPagedFile file{1024};
  std::unique_ptr<HybridTree> tree;
  Dataset data;

  explicit Fixture(size_t n = 3000, uint32_t dim = 6) {
    Rng rng(1701);
    data = GenClustered(n, dim, 5, 0.07, rng);
    HybridTreeOptions o;
    o.dim = dim;
    o.page_size = 1024;
    tree = HybridTree::Create(o, &file).ValueOrDie();
    for (size_t i = 0; i < data.size(); ++i) {
      HT_CHECK_OK(tree->Insert(data.Row(i), i));
    }
  }
};

TEST(KnnCursorTest, YieldsAscendingExactDistances) {
  Fixture f;
  L2Metric l2;
  auto cursor = f.tree->OpenKnnCursor(f.data.Row(0), l2);
  auto want = BruteForceKnn(f.data, f.data.Row(0), 50, l2);
  double prev = -1.0;
  for (size_t i = 0; i < 50; ++i) {
    auto next = cursor.Next().ValueOrDie();
    ASSERT_TRUE(next.has_value()) << i;
    EXPECT_GE(next->first, prev);
    EXPECT_NEAR(next->first, want[i].first, 1e-9) << i;
    prev = next->first;
  }
}

TEST(KnnCursorTest, DrainsTheWholeTree) {
  Fixture f(800, 3);
  L1Metric l1;
  auto cursor = f.tree->OpenKnnCursor(f.data.Row(5), l1);
  std::set<uint64_t> seen;
  double prev = -1.0;
  for (;;) {
    auto next = cursor.Next().ValueOrDie();
    if (!next.has_value()) break;
    EXPECT_GE(next->first, prev);
    prev = next->first;
    EXPECT_TRUE(seen.insert(next->second).second) << "duplicate id";
  }
  EXPECT_EQ(seen.size(), f.data.size());
}

TEST(KnnCursorTest, EmptyTree) {
  MemPagedFile file(1024);
  HybridTreeOptions o;
  o.dim = 2;
  o.page_size = 1024;
  auto tree = HybridTree::Create(o, &file).ValueOrDie();
  L2Metric l2;
  auto cursor = tree->OpenKnnCursor(std::vector<float>{0.5f, 0.5f}, l2);
  EXPECT_FALSE(cursor.Next().ValueOrDie().has_value());
}

TEST(KnnCursorTest, LazyFetchingReadsFewerPagesForFewResults) {
  Fixture f;
  L2Metric l2;
  f.tree->pool().ResetStats();
  auto cursor = f.tree->OpenKnnCursor(f.data.Row(0), l2);
  for (int i = 0; i < 3; ++i) (void)cursor.Next().ValueOrDie();
  const uint64_t few = f.tree->pool().stats().logical_reads;
  TreeStats s = f.tree->ComputeStats().ValueOrDie();
  EXPECT_LT(few, (s.data_nodes + s.index_nodes) / 2);
}

/// (1+epsilon)-approximate k-NN through the one bounded entry point.
Result<std::vector<std::pair<double, uint64_t>>> ApproxKnn(
    const HybridTree& tree, std::span<const float> center, size_t k,
    const DistanceMetric& metric, double epsilon) {
  KnnSearchLimits limits;
  limits.epsilon = epsilon;
  std::vector<std::pair<double, uint64_t>> out;
  HT_RETURN_NOT_OK(tree.SearchKnnBoundedInto(center, k, metric, limits,
                                             /*scratch=*/nullptr, &out));
  return out;
}

TEST(ApproxKnnTest, EpsilonZeroIsExact) {
  Fixture f;
  L2Metric l2;
  for (int q = 0; q < 10; ++q) {
    auto exact = f.tree->SearchKnn(f.data.Row(q), 10, l2).ValueOrDie();
    auto approx = ApproxKnn(*f.tree, f.data.Row(q), 10, l2, 0.0).ValueOrDie();
    ASSERT_EQ(exact.size(), approx.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_DOUBLE_EQ(exact[i].first, approx[i].first);
    }
  }
}

TEST(ApproxKnnTest, GuaranteeHoldsAndAccessesDrop) {
  Fixture f(6000, 8);
  L2Metric l2;
  Rng rng(1702);
  auto centers = MakeQueryCenters(f.data, 30, rng);
  const double epsilon = 0.5;
  uint64_t exact_reads = 0, approx_reads = 0;
  for (const auto& c : centers) {
    auto want = BruteForceKnn(f.data, c, 10, l2);
    f.tree->pool().ResetStats();
    auto exact = f.tree->SearchKnn(c, 10, l2).ValueOrDie();
    exact_reads += f.tree->pool().stats().logical_reads;
    f.tree->pool().ResetStats();
    auto approx = ApproxKnn(*f.tree, c, 10, l2, epsilon).ValueOrDie();
    approx_reads += f.tree->pool().stats().logical_reads;
    ASSERT_EQ(approx.size(), want.size());
    // (1+eps) guarantee: the i-th reported distance is within (1+eps) of
    // the true i-th distance.
    for (size_t i = 0; i < approx.size(); ++i) {
      ASSERT_LE(approx[i].first, (1.0 + epsilon) * want[i].first + 1e-12);
    }
  }
  EXPECT_LT(approx_reads, exact_reads);
}

TEST(ApproxKnnTest, RejectsNegativeEpsilon) {
  Fixture f(100, 3);
  L2Metric l2;
  // NaN fails every gate and 0 * inf is NaN: neither may pass as a knob.
  for (const double epsilon : {-0.1, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    EXPECT_TRUE(ApproxKnn(*f.tree, f.data.Row(0), 3, l2, epsilon)
                    .status()
                    .IsInvalidArgument())
        << epsilon;
  }
}

}  // namespace
}  // namespace ht

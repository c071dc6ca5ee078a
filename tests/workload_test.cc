// Tests for workload generation & selectivity calibration.

#include "data/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "data/generators.h"

namespace ht {
namespace {

TEST(WorkloadTest, BoxQueryClippedToCube) {
  const std::vector<float> center = {0.05f, 0.95f};
  Box q = MakeBoxQuery(center, 0.2);
  EXPECT_FLOAT_EQ(q.lo(0), 0.0f);
  EXPECT_FLOAT_EQ(q.hi(0), 0.15f);
  EXPECT_FLOAT_EQ(q.lo(1), 0.85f);
  EXPECT_FLOAT_EQ(q.hi(1), 1.0f);
}

TEST(WorkloadTest, CentersStayInCube) {
  Rng rng(67);
  Dataset d = GenUniform(500, 3, rng);
  auto centers = MakeQueryCenters(d, 100, rng, 0.1);
  EXPECT_EQ(centers.size(), 100u);
  for (const auto& c : centers) {
    for (float v : c) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(WorkloadTest, CalibratedBoxSideHitsTargetSelectivity) {
  Rng rng(71);
  Dataset d = GenUniform(20000, 4, rng);
  const double target = 0.01;
  const double side = CalibrateBoxSide(d, target, 30, rng);
  // Measure achieved mean selectivity with fresh queries.
  Rng rng2(72);
  auto centers = MakeQueryCenters(d, 50, rng2);
  double total = 0.0;
  for (const auto& c : centers) {
    total += static_cast<double>(BruteForceBox(d, MakeBoxQuery(c, side)).size());
  }
  const double achieved = total / (50.0 * static_cast<double>(d.size()));
  EXPECT_NEAR(achieved, target, target);  // within 2x
}

TEST(WorkloadTest, CalibratedRadiusHitsTargetSelectivity) {
  Rng rng(73);
  Dataset d = GenColhist(8000, 16, rng);
  L1Metric metric;
  const double target = 0.005;
  const double radius = CalibrateRangeRadius(d, metric, target, 30, rng);
  Rng rng2(74);
  auto centers = MakeQueryCenters(d, 40, rng2);
  double total = 0.0;
  for (const auto& c : centers) {
    total += static_cast<double>(BruteForceRange(d, c, radius, metric).size());
  }
  const double achieved = total / (40.0 * static_cast<double>(d.size()));
  EXPECT_NEAR(achieved, target, target);
}

TEST(WorkloadTest, BruteForceBoxMatchesManualCheck) {
  Dataset d(2, 4);
  const float rows[4][2] = {
      {0.1f, 0.1f}, {0.5f, 0.5f}, {0.55f, 0.45f}, {0.9f, 0.9f}};
  for (size_t i = 0; i < 4; ++i) {
    auto r = d.MutableRow(i);
    r[0] = rows[i][0];
    r[1] = rows[i][1];
  }
  Box q = Box::FromBounds({0.4f, 0.4f}, {0.6f, 0.6f});
  auto hits = BruteForceBox(d, q);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 1u);
  EXPECT_EQ(hits[1], 2u);
}

TEST(WorkloadTest, BruteForceKnnSortedAndCorrectSize) {
  Rng rng(79);
  Dataset d = GenUniform(500, 3, rng);
  const std::vector<float> q = {0.5f, 0.5f, 0.5f};
  L2Metric metric;
  auto knn = BruteForceKnn(d, q, 10, metric);
  ASSERT_EQ(knn.size(), 10u);
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_LE(knn[i - 1].first, knn[i].first);
  }
  // k > n clamps.
  EXPECT_EQ(BruteForceKnn(d, q, 9999, metric).size(), 500u);
}

TEST(WorkloadTest, BruteForceKnnHoldsOnlyKEntries) {
  Rng rng(89);
  Dataset d = GenUniform(2000, 4, rng);
  const std::vector<float> q = {0.25f, 0.5f, 0.75f, 0.5f};
  L2Metric metric;
  auto knn = BruteForceKnn(d, q, 10, metric);
  ASSERT_EQ(knn.size(), 10u);
  // The result keeps no n-row buffer behind it.
  EXPECT_LT(knn.capacity(), d.size());
  // Same answer as sorting every (distance, id) pair: ties by id.
  std::vector<std::pair<double, uint64_t>> all;
  for (size_t i = 0; i < d.size(); ++i) {
    all.emplace_back(metric.Distance(q, d.Row(i)), i);
  }
  std::sort(all.begin(), all.end());
  all.resize(10);
  EXPECT_EQ(knn, all);
}

TEST(WorkloadTest, BruteForceRangeMatchesKnnPrefix) {
  Rng rng(83);
  Dataset d = GenUniform(1000, 2, rng);
  const std::vector<float> q = {0.3f, 0.7f};
  L1Metric metric;
  auto knn = BruteForceKnn(d, q, 20, metric);
  const double radius = knn.back().first;
  auto range = BruteForceRange(d, q, radius, metric);
  // Every knn member must be in the range result.
  EXPECT_GE(range.size(), 20u);
}

}  // namespace
}  // namespace ht

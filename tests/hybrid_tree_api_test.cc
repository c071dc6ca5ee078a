// Tests for the convenience / audit APIs: SearchPoint, CountBox, ScanAll
// and per-level statistics.

#include <gtest/gtest.h>

#include <map>
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

  Fixture() {
    Rng rng(2101);
    data = GenClustered(3000, 4, 5, 0.07, rng);
    HybridTreeOptions o;
    o.dim = 4;
    o.page_size = 1024;
    tree = HybridTree::Create(o, &file).ValueOrDie();
    for (size_t i = 0; i < data.size(); ++i) {
      HT_CHECK_OK(tree->Insert(data.Row(i), i));
    }
  }
};

TEST(HybridTreeApiTest, SearchPointFindsExactMatchesOnly) {
  Fixture f;
  auto hits = f.tree->SearchPoint(f.data.Row(42)).ValueOrDie();
  ASSERT_GE(hits.size(), 1u);
  bool found = false;
  for (uint64_t id : hits) {
    // Every hit must be at exactly that point.
    EXPECT_EQ(std::vector<float>(f.data.Row(id).begin(),
                                 f.data.Row(id).end()),
              std::vector<float>(f.data.Row(42).begin(),
                                 f.data.Row(42).end()));
    if (id == 42) found = true;
  }
  EXPECT_TRUE(found);
  // A point not in the dataset yields nothing.
  std::vector<float> nowhere = {0.987f, 0.123f, 0.456f, 0.789f};
  EXPECT_TRUE(f.tree->SearchPoint(nowhere).ValueOrDie().empty());
}

TEST(HybridTreeApiTest, CountBoxMatchesSearchBox) {
  Fixture f;
  Rng rng(2103);
  for (int q = 0; q < 10; ++q) {
    auto centers = MakeQueryCenters(f.data, 1, rng);
    Box query = MakeBoxQuery(centers[0], 0.3);
    EXPECT_EQ(f.tree->CountBox(query).ValueOrDie(),
              f.tree->SearchBox(query).ValueOrDie().size());
  }
}

TEST(HybridTreeApiTest, ScanAllVisitsEveryEntryOnce) {
  Fixture f;
  std::map<uint64_t, std::vector<float>> seen;
  HT_CHECK_OK(f.tree->ScanAll([&](uint64_t id, std::span<const float> v) {
    EXPECT_TRUE(
        seen.emplace(id, std::vector<float>(v.begin(), v.end())).second)
        << "duplicate id " << id;
  }));
  ASSERT_EQ(seen.size(), f.data.size());
  for (const auto& [id, vec] : seen) {
    ASSERT_EQ(vec, std::vector<float>(f.data.Row(id).begin(),
                                      f.data.Row(id).end()));
  }
}

TEST(HybridTreeApiTest, ScanAllReadsEachPageOnce) {
  Fixture f;
  TreeStats s = f.tree->ComputeStats().ValueOrDie();
  f.tree->pool().ResetStats();
  HT_CHECK_OK(f.tree->ScanAll([](uint64_t, std::span<const float>) {}));
  EXPECT_EQ(f.tree->pool().stats().logical_reads,
            s.data_nodes + s.index_nodes);
}

TEST(HybridTreeApiTest, PerLevelStatsAreConsistent) {
  Fixture f;
  TreeStats s = f.tree->ComputeStats().ValueOrDie();
  ASSERT_EQ(s.levels.size(), static_cast<size_t>(f.tree->height()) + 1);
  // Root level first, data level (0) last.
  EXPECT_EQ(s.levels.front().level, f.tree->height());
  EXPECT_EQ(s.levels.back().level, 0u);
  EXPECT_EQ(s.levels.front().nodes, 1u);  // single root
  // Level-0 children are the entries; each level's children equal the node
  // count of the level below.
  EXPECT_EQ(s.levels.back().children, f.tree->size());
  for (size_t i = 0; i + 1 < s.levels.size(); ++i) {
    EXPECT_EQ(s.levels[i].children, s.levels[i + 1].nodes)
        << "level " << s.levels[i].level;
  }
  uint64_t total_nodes = 0;
  for (const auto& lv : s.levels) total_nodes += lv.nodes;
  EXPECT_EQ(total_nodes, s.data_nodes + s.index_nodes);
  EXPECT_NE(s.ToString().find("level 0"), std::string::npos);
}

TEST(HybridTreeApiTest, ApiErrorsOnDimMismatch) {
  Fixture f;
  std::vector<float> wrong = {0.5f};
  EXPECT_TRUE(f.tree->SearchPoint(wrong).status().IsInvalidArgument());
}

}  // namespace
}  // namespace ht

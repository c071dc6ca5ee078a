// Integration tests for the hybrid tree: end-to-end correctness of insert,
// box / range / k-NN search, and delete, checked against brute force.

#include "core/hybrid_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/generators.h"
#include "data/workload.h"

namespace ht {
namespace {

struct TreeFixture {
  std::unique_ptr<MemPagedFile> file;
  std::unique_ptr<HybridTree> tree;

  explicit TreeFixture(HybridTreeOptions opts) {
    file = std::make_unique<MemPagedFile>(opts.page_size);
    tree = HybridTree::Create(opts, file.get()).ValueOrDie();
  }
};

HybridTreeOptions SmallOpts(uint32_t dim, size_t page_size = 512) {
  HybridTreeOptions o;
  o.dim = dim;
  o.page_size = page_size;
  return o;
}

void LoadDataset(HybridTree* tree, const Dataset& data) {
  for (size_t i = 0; i < data.size(); ++i) {
    HT_CHECK_OK(tree->Insert(data.Row(i), i));
  }
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(HybridTreeTest, CreateValidation) {
  MemPagedFile file(512);
  HybridTreeOptions o;
  o.dim = 0;
  o.page_size = 512;
  EXPECT_FALSE(HybridTree::Create(o, &file).ok());
  o.dim = 1000;  // entry would not fit 4 entries in 512B
  EXPECT_FALSE(HybridTree::Create(o, &file).ok());
  o.dim = 2;
  o.page_size = 4096;  // mismatch with file page size
  EXPECT_FALSE(HybridTree::Create(o, &file).ok());
}

TEST(HybridTreeTest, EmptyTreeSearches) {
  TreeFixture f(SmallOpts(2));
  EXPECT_EQ(f.tree->size(), 0u);
  EXPECT_TRUE(f.tree->SearchBox(Box::UnitCube(2)).ValueOrDie().empty());
  EXPECT_TRUE(
      f.tree->SearchKnn(std::vector<float>{0.5f, 0.5f}, 3, L2Metric())
          .ValueOrDie()
          .empty());
  EXPECT_TRUE(f.tree->CheckInvariants().ok());
}

TEST(HybridTreeTest, InsertValidation) {
  TreeFixture f(SmallOpts(2));
  EXPECT_TRUE(
      f.tree->Insert(std::vector<float>{0.5f}, 0).IsInvalidArgument());
  EXPECT_TRUE(f.tree->Insert(std::vector<float>{0.5f, 1.5f}, 0)
                  .IsInvalidArgument());
  EXPECT_TRUE(f.tree->Insert(std::vector<float>{-0.1f, 0.5f}, 0)
                  .IsInvalidArgument());
  EXPECT_EQ(f.tree->size(), 0u);
}

TEST(HybridTreeTest, SingleNodeLifecycle) {
  TreeFixture f(SmallOpts(2));
  HT_CHECK_OK(f.tree->Insert(std::vector<float>{0.25f, 0.75f}, 42));
  EXPECT_EQ(f.tree->size(), 1u);
  EXPECT_EQ(f.tree->height(), 0u);
  auto hits =
      f.tree->SearchBox(Box::FromBounds({0.2f, 0.7f}, {0.3f, 0.8f}))
          .ValueOrDie();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42u);
  EXPECT_TRUE(f.tree->CheckInvariants().ok());
}

TEST(HybridTreeTest, GrowsAndMatchesBruteForceBoxSearch) {
  Rng rng(201);
  Dataset data = GenUniform(3000, 4, rng);
  TreeFixture f(SmallOpts(4, 512));  // tiny pages -> deep tree
  LoadDataset(f.tree.get(), data);
  EXPECT_EQ(f.tree->size(), 3000u);
  EXPECT_GE(f.tree->height(), 2u);
  ASSERT_TRUE(f.tree->CheckInvariants().ok());

  for (int q = 0; q < 50; ++q) {
    auto centers = MakeQueryCenters(data, 1, rng);
    Box query = MakeBoxQuery(centers[0], 0.3);
    auto expect = BruteForceBox(data, query);
    auto got = Sorted(f.tree->SearchBox(query).ValueOrDie());
    ASSERT_EQ(got, expect) << "query " << q << ": " << query.ToString();
  }
}

TEST(HybridTreeTest, RangeSearchMatchesBruteForceAllMetrics) {
  Rng rng(211);
  Dataset data = GenClustered(2000, 3, 4, 0.1, rng);
  TreeFixture f(SmallOpts(3, 512));
  LoadDataset(f.tree.get(), data);

  const L1Metric l1;
  const L2Metric l2;
  const LInfMetric linf;
  const WeightedL2Metric wl2({2.0, 0.5, 1.0});
  const DistanceMetric* metrics[] = {&l1, &l2, &linf, &wl2};
  for (const DistanceMetric* m : metrics) {
    for (int q = 0; q < 10; ++q) {
      auto centers = MakeQueryCenters(data, 1, rng);
      const double radius = 0.05 + 0.2 * rng.NextDouble();
      auto expect = BruteForceRange(data, centers[0], radius, *m);
      auto got =
          Sorted(f.tree->SearchRange(centers[0], radius, *m).ValueOrDie());
      ASSERT_EQ(got, expect) << m->Name() << " radius=" << radius;
    }
  }
}

TEST(HybridTreeTest, KnnMatchesBruteForceDistances) {
  Rng rng(223);
  Dataset data = GenUniform(2500, 3, rng);
  TreeFixture f(SmallOpts(3, 512));
  LoadDataset(f.tree.get(), data);

  const L2Metric l2;
  const L1Metric l1;
  for (const DistanceMetric* m :
       std::initializer_list<const DistanceMetric*>{&l1, &l2}) {
    for (int q = 0; q < 20; ++q) {
      auto centers = MakeQueryCenters(data, 1, rng);
      const size_t k = 1 + rng.NextBelow(30);
      auto expect = BruteForceKnn(data, centers[0], k, *m);
      auto got = f.tree->SearchKnn(centers[0], k, *m).ValueOrDie();
      ASSERT_EQ(got.size(), expect.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i].first, expect[i].first, 1e-9)
            << m->Name() << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(HybridTreeTest, KnnKLargerThanDataset) {
  Rng rng(227);
  Dataset data = GenUniform(50, 2, rng);
  TreeFixture f(SmallOpts(2));
  LoadDataset(f.tree.get(), data);
  auto got = f.tree->SearchKnn(std::vector<float>{0.1f, 0.1f}, 500, L2Metric())
                 .ValueOrDie();
  EXPECT_EQ(got.size(), 50u);
}

TEST(HybridTreeTest, DuplicatePointsSupported) {
  TreeFixture f(SmallOpts(2, 512));
  const std::vector<float> p = {0.5f, 0.5f};
  // Far more duplicates than one data node holds: exercises the degenerate
  // split path.
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(f.tree->Insert(p, i).ok()) << i;
  }
  EXPECT_EQ(f.tree->size(), 300u);
  auto hits = f.tree->SearchBox(Box::FromBounds({0.5f, 0.5f}, {0.5f, 0.5f}))
                  .ValueOrDie();
  EXPECT_EQ(hits.size(), 300u);
  ASSERT_TRUE(f.tree->CheckInvariants().ok());
}

TEST(HybridTreeTest, DeleteRemovesExactlyOneEntry) {
  Rng rng(229);
  Dataset data = GenUniform(800, 2, rng);
  TreeFixture f(SmallOpts(2, 512));
  LoadDataset(f.tree.get(), data);

  // Delete every third point and re-verify queries against brute force on
  // the remaining set.
  std::set<uint64_t> deleted;
  for (size_t i = 0; i < data.size(); i += 3) {
    ASSERT_TRUE(f.tree->Delete(data.Row(i), i).ok()) << i;
    deleted.insert(i);
  }
  EXPECT_EQ(f.tree->size(), data.size() - deleted.size());
  ASSERT_TRUE(f.tree->CheckInvariants().ok());

  for (int q = 0; q < 20; ++q) {
    auto centers = MakeQueryCenters(data, 1, rng);
    Box query = MakeBoxQuery(centers[0], 0.25);
    std::vector<uint64_t> expect;
    for (uint64_t id : BruteForceBox(data, query)) {
      if (!deleted.count(id)) expect.push_back(id);
    }
    auto got = Sorted(f.tree->SearchBox(query).ValueOrDie());
    ASSERT_EQ(got, expect);
  }
}

TEST(HybridTreeTest, DeleteMissingIsNotFound) {
  TreeFixture f(SmallOpts(2));
  HT_CHECK_OK(f.tree->Insert(std::vector<float>{0.5f, 0.5f}, 7));
  EXPECT_TRUE(
      f.tree->Delete(std::vector<float>{0.5f, 0.5f}, 8).IsNotFound());
  EXPECT_TRUE(
      f.tree->Delete(std::vector<float>{0.4f, 0.5f}, 7).IsNotFound());
  EXPECT_EQ(f.tree->size(), 1u);
}

TEST(HybridTreeTest, DeleteEverythingThenReuse) {
  Rng rng(233);
  Dataset data = GenUniform(600, 2, rng);
  TreeFixture f(SmallOpts(2, 512));
  LoadDataset(f.tree.get(), data);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(f.tree->Delete(data.Row(i), i).ok()) << i;
  }
  EXPECT_EQ(f.tree->size(), 0u);
  ASSERT_TRUE(f.tree->CheckInvariants().ok());
  EXPECT_TRUE(f.tree->SearchBox(Box::UnitCube(2)).ValueOrDie().empty());
  // The tree is still usable afterwards.
  LoadDataset(f.tree.get(), data);
  EXPECT_EQ(f.tree->size(), 600u);
  ASSERT_TRUE(f.tree->CheckInvariants().ok());
}

TEST(HybridTreeTest, MixedInsertDeleteSearchWorkload) {
  Rng rng(239);
  Dataset data = GenUniform(2000, 3, rng);
  TreeFixture f(SmallOpts(3, 512));
  std::set<uint64_t> present;
  for (size_t i = 0; i < data.size(); ++i) {
    HT_CHECK_OK(f.tree->Insert(data.Row(i), i));
    present.insert(i);
    if (i % 7 == 6) {
      // Delete a random present id.
      auto it = present.begin();
      std::advance(it, rng.NextBelow(present.size()));
      ASSERT_TRUE(f.tree->Delete(data.Row(*it), *it).ok());
      present.erase(it);
    }
    if (i % 400 == 399) {
      ASSERT_TRUE(f.tree->CheckInvariants().ok()) << "at step " << i;
      Box query = MakeBoxQuery(data.Row(rng.NextBelow(i)), 0.3);
      std::vector<uint64_t> expect;
      for (uint64_t id : BruteForceBox(data, query)) {
        if (present.count(id)) expect.push_back(id);
      }
      auto got = Sorted(f.tree->SearchBox(query).ValueOrDie());
      ASSERT_EQ(got, expect) << "at step " << i;
    }
  }
}

TEST(HybridTreeTest, AccessCountingViaPool) {
  Rng rng(241);
  Dataset data = GenUniform(2000, 4, rng);
  TreeFixture f(SmallOpts(4, 512));
  LoadDataset(f.tree.get(), data);
  f.tree->pool().ResetStats();
  Box query = MakeBoxQuery(data.Row(0), 0.1);
  (void)f.tree->SearchBox(query).ValueOrDie();
  const IoStats st = f.tree->pool().stats();
  EXPECT_GT(st.logical_reads, 0u);
  // A selective query must touch far fewer pages than the whole tree.
  auto stats = f.tree->ComputeStats().ValueOrDie();
  EXPECT_LT(st.logical_reads, stats.data_nodes + stats.index_nodes);
}

TEST(HybridTreeTest, StatsReflectStructure) {
  Rng rng(251);
  Dataset data = GenUniform(3000, 4, rng);
  TreeFixture f(SmallOpts(4, 512));
  LoadDataset(f.tree.get(), data);
  TreeStats s = f.tree->ComputeStats().ValueOrDie();
  EXPECT_EQ(s.entry_count, 3000u);
  EXPECT_GT(s.data_nodes, 0u);
  EXPECT_GT(s.index_nodes, 0u);
  // Utilization guarantee: every non-root data node holds at least the
  // configured floor of entries (floor(util * capacity)).
  const double cap = static_cast<double>(f.tree->data_node_capacity());
  const double floor_entries =
      std::floor(f.tree->options().data_node_min_util * cap);
  EXPECT_GE(s.min_data_utilization * cap + 1e-6, floor_entries);
  EXPECT_GT(s.avg_index_fanout, 1.9);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(HybridTreeTest, ElsSidecarTracksBytes) {
  Rng rng(257);
  Dataset data = GenUniform(2000, 4, rng);
  HybridTreeOptions o = SmallOpts(4, 512);
  o.els_mode = ElsMode::kInMemory;
  o.els_bits = 4;
  TreeFixture f(o);
  LoadDataset(f.tree.get(), data);
  TreeStats s = f.tree->ComputeStats().ValueOrDie();
  EXPECT_GT(s.els_sidecar_bytes, 0u);
  // Paper: tiny relative to the data (~1% at 64-d/8K pages; generously
  // bounded here).
  EXPECT_LT(s.els_sidecar_bytes, 2000u * 4 * 4);
}

}  // namespace
}  // namespace ht

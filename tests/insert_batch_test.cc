// Tests for HybridTree::InsertBatch: query-result equivalence with a loop
// of single Inserts, split handling across node overflows, the kd region
// a split is clipped against after a gap widening, and the
// validate-before-mutation contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"

namespace ht {
namespace {

HybridTreeOptions SmallOpts(uint32_t dim, size_t page_size = 512) {
  HybridTreeOptions o;
  o.dim = dim;
  o.page_size = page_size;
  return o;
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Flattens rows [begin, end) of `data` for InsertBatch.
void FlattenRows(const Dataset& data, size_t begin, size_t end,
                 std::vector<float>* points, std::vector<uint64_t>* ids) {
  points->clear();
  ids->clear();
  for (size_t i = begin; i < end; ++i) {
    auto row = data.Row(i);
    points->insert(points->end(), row.begin(), row.end());
    ids->push_back(i);
  }
}

/// A box around the unit-cube center with the given half side.
Box CenterBox(uint32_t dim, float half) {
  Box b = Box::UnitCube(dim);
  for (uint32_t d = 0; d < dim; ++d) {
    b.set_lo(d, 0.5f - half);
    b.set_hi(d, 0.5f + half);
  }
  return b;
}

TEST(InsertBatchTest, MatchesInsertLoopOnEveryQuery) {
  const uint32_t kDim = 8;
  const size_t kN = 1200;
  Rng rng(20260806);
  Dataset data = GenFourier(kN, kDim, rng);

  MemPagedFile file_a(512), file_b(512);
  auto loop_tree = HybridTree::Create(SmallOpts(kDim), &file_a).ValueOrDie();
  auto batch_tree = HybridTree::Create(SmallOpts(kDim), &file_b).ValueOrDie();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(loop_tree->Insert(data.Row(i), i).ok());
  }
  // Odd chunk size so batches straddle node splits at varying offsets.
  std::vector<float> points;
  std::vector<uint64_t> ids;
  for (size_t begin = 0; begin < kN; begin += 97) {
    const size_t end = std::min(begin + 97, kN);
    FlattenRows(data, begin, end, &points, &ids);
    ASSERT_TRUE(batch_tree->InsertBatch(points, ids).ok()) << begin;
  }

  EXPECT_EQ(batch_tree->size(), loop_tree->size());
  EXPECT_TRUE(batch_tree->CheckInvariants().ok());
  // The stored set is identical, so every query answer must be too (the
  // internal split structure may differ; compare sorted id sets).
  EXPECT_EQ(Sorted(batch_tree->SearchBox(Box::UnitCube(kDim)).ValueOrDie()),
            Sorted(loop_tree->SearchBox(Box::UnitCube(kDim)).ValueOrDie()));
  for (float half : {0.05f, 0.15f, 0.3f, 0.45f}) {
    const Box q = CenterBox(kDim, half);
    EXPECT_EQ(Sorted(batch_tree->SearchBox(q).ValueOrDie()),
              Sorted(loop_tree->SearchBox(q).ValueOrDie()))
        << "half side " << half;
  }
  // k-NN distances agree too (sorted multisets of distances; id-level
  // tie-breaks may legitimately differ between structures).
  std::vector<float> center(kDim, 0.5f);
  auto a = loop_tree->SearchKnn(center, 10, L2Metric()).ValueOrDie();
  auto b = batch_tree->SearchKnn(center, 10, L2Metric()).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].first, b[i].first) << i;
  }
}

TEST(InsertBatchTest, OneBatchFromEmptyTreeSplitsAllTheWayUp) {
  const uint32_t kDim = 8;
  const size_t kN = 1500;
  Rng rng(99);
  Dataset data = GenFourier(kN, kDim, rng);
  MemPagedFile file(512);
  auto tree = HybridTree::Create(SmallOpts(kDim), &file).ValueOrDie();
  std::vector<float> points;
  std::vector<uint64_t> ids;
  FlattenRows(data, 0, kN, &points, &ids);
  ASSERT_TRUE(tree->InsertBatch(points, ids).ok());
  EXPECT_EQ(tree->size(), kN);
  EXPECT_GT(tree->height(), 0u);  // the root grew past a single data node
  EXPECT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->SearchBox(Box::UnitCube(kDim)).ValueOrDie().size(), kN);
}

TEST(InsertBatchTest, ValidatesWholeBatchBeforeMutating) {
  const uint32_t kDim = 4;
  MemPagedFile file(512);
  auto tree = HybridTree::Create(SmallOpts(kDim), &file).ValueOrDie();
  std::vector<float> seed(kDim, 0.25f);
  ASSERT_TRUE(tree->Insert(seed, 7).ok());

  // Last row is out of range: the whole batch must be refused with the
  // tree untouched — not applied up to the bad row.
  std::vector<float> points = {0.1f, 0.1f, 0.1f, 0.1f,   //
                               0.2f, 0.2f, 0.2f, 0.2f,   //
                               0.3f, 0.3f, 1.5f, 0.3f};  // bad
  std::vector<uint64_t> ids = {10, 11, 12};
  EXPECT_TRUE(tree->InsertBatch(points, ids).IsInvalidArgument());
  EXPECT_EQ(tree->size(), 1u);
  EXPECT_EQ(tree->SearchBox(Box::UnitCube(kDim)).ValueOrDie(),
            std::vector<uint64_t>{7});

  // Length mismatch between points and ids.
  std::vector<float> short_points(kDim * 2 - 1, 0.5f);
  EXPECT_TRUE(
      tree->InsertBatch(short_points, std::vector<uint64_t>{1, 2})
          .IsInvalidArgument());
  // Empty batch is a no-op.
  EXPECT_TRUE(tree->InsertBatch({}, {}).ok());
  EXPECT_EQ(tree->size(), 1u);
}

TEST(InsertBatchTest, InterleavesWithSingleInserts) {
  const uint32_t kDim = 6;
  const size_t kN = 900;
  Rng rng(7);
  Dataset data = GenFourier(kN, kDim, rng);
  MemPagedFile file_a(512), file_b(512);
  auto loop_tree = HybridTree::Create(SmallOpts(kDim), &file_a).ValueOrDie();
  auto mixed_tree = HybridTree::Create(SmallOpts(kDim), &file_b).ValueOrDie();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(loop_tree->Insert(data.Row(i), i).ok());
  }
  std::vector<float> points;
  std::vector<uint64_t> ids;
  size_t i = 0;
  while (i < kN) {
    if (i % 3 == 0 && i + 50 <= kN) {
      FlattenRows(data, i, i + 50, &points, &ids);
      ASSERT_TRUE(mixed_tree->InsertBatch(points, ids).ok());
      i += 50;
    } else {
      ASSERT_TRUE(mixed_tree->Insert(data.Row(i), i).ok());
      ++i;
    }
  }
  EXPECT_EQ(mixed_tree->size(), loop_tree->size());
  EXPECT_TRUE(mixed_tree->CheckInvariants().ok());
  EXPECT_EQ(Sorted(mixed_tree->SearchBox(Box::UnitCube(kDim)).ValueOrDie()),
            Sorted(loop_tree->SearchBox(Box::UnitCube(kDim)).ValueOrDie()));
}

TEST(InsertBatchTest, SplitAfterAGapWideningClipsAgainstTheWidenedRegion) {
  // Clustered rows leave kd gaps between the clusters' children once index
  // nodes split; uniform rows then land in those gaps. Within one batch a
  // row routed to leaf L captures L's region, a later row falls into a gap
  // above L and widens it (moving L's region), and L's child then splits:
  // the two new leaves' ELS codes must be encoded against L's widened
  // region, not the one captured first, or the decoded boxes stop covering
  // their points.
  const size_t kBase = 1000;
  const size_t kN = 3000;
  const size_t kBatch = 100;
  for (uint32_t dim : {3u, 4u}) {
    Rng rng(20261019 + dim);
    Dataset data = GenClustered(kN, dim, 6, 0.03, rng);
    for (size_t i = kBase; i < kN; ++i) {
      for (float& v : data.MutableRow(i)) {
        v = static_cast<float>(rng.NextDouble());
      }
    }
    MemPagedFile file(512);
    auto tree = HybridTree::Create(SmallOpts(dim), &file).ValueOrDie();
    for (size_t i = 0; i < kBase; ++i) {
      ASSERT_TRUE(tree->Insert(data.Row(i), i).ok());
    }
    std::vector<float> points;
    std::vector<uint64_t> ids;
    for (size_t begin = kBase; begin < kN; begin += kBatch) {
      FlattenRows(data, begin, begin + kBatch, &points, &ids);
      ASSERT_TRUE(tree->InsertBatch(points, ids).ok());
      const Status st = tree->CheckInvariants();
      ASSERT_TRUE(st.ok()) << "dim " << dim << ", batch at row " << begin
                           << ": " << st.ToString();
    }
    for (double side : {0.1, 0.3, 0.6}) {
      for (size_t q = 0; q < kN; q += 199) {
        const Box query = MakeBoxQuery(data.Row(q), side);
        EXPECT_EQ(Sorted(tree->SearchBox(query).ValueOrDie()),
                  BruteForceBox(data, query))
            << "dim " << dim << ", row " << q << ", side " << side;
      }
    }
  }
}

}  // namespace
}  // namespace ht

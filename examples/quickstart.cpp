// Quickstart: build a hybrid tree over a small feature dataset, then run
// the three query types the structure supports — window (box) queries,
// distance-range queries, and k-nearest-neighbor queries — under different
// distance metrics.
//
//   $ ./quickstart

#include <cstdio>

#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"

using namespace ht;

int main() {
  // 1. An in-memory paged file + a tree over 8-d feature vectors.
  //    (Use DiskPagedFile for a persistent index; see persistence_demo.)
  MemPagedFile file(kDefaultPageSize);
  HybridTreeOptions options;
  options.dim = 8;
  auto tree_or = HybridTree::Create(options, &file);
  HT_CHECK_OK(tree_or.status());
  auto tree = std::move(tree_or).ValueOrDie();

  // 2. Insert 10,000 synthetic feature vectors (ids = row indices).
  //    Coordinates must lie in the normalized feature space [0,1]^dim.
  Rng rng(42);
  Dataset data = GenClustered(10000, options.dim, /*clusters=*/6,
                              /*sigma=*/0.08, rng);
  for (size_t i = 0; i < data.size(); ++i) {
    HT_CHECK_OK(tree->Insert(data.Row(i), i));
  }
  std::printf("indexed %llu vectors, tree height %u\n",
              static_cast<unsigned long long>(tree->size()), tree->height());

  // 3. Window query: all objects inside a box.
  const Box window = MakeBoxQuery(data.Row(0), /*side=*/0.15);
  auto box_hits = tree->SearchBox(window).ValueOrDie();
  std::printf("window query around object 0: %zu hits\n", box_hits.size());

  // 4. Distance-range query: all objects within L1 distance 0.4.
  L1Metric l1;
  auto range_hits = tree->SearchRange(data.Row(0), 0.4, l1).ValueOrDie();
  std::printf("L1 range query (r=0.4): %zu hits\n", range_hits.size());

  // 5. k-NN query. The metric is chosen per query — the same index serves
  //    L1, L2, weighted metrics, or your own DistanceMetric subclass.
  L2Metric l2;
  auto nn = tree->SearchKnn(data.Row(0), 5, l2).ValueOrDie();
  std::printf("5 nearest neighbors of object 0 (L2):\n");
  for (const auto& [dist, id] : nn) {
    std::printf("  id=%llu distance=%.4f\n",
                static_cast<unsigned long long>(id), dist);
  }

  // 6. Deletion keeps the structure balanced (eliminate-and-reinsert).
  HT_CHECK_OK(tree->Delete(data.Row(0), 0));
  std::printf("deleted object 0; size now %llu\n",
              static_cast<unsigned long long>(tree->size()));

  // 7. Access accounting: how many page reads did the last query cost?
  tree->pool().ResetStats();
  (void)tree->SearchKnn(data.Row(1), 5, l2).ValueOrDie();
  std::printf("that 5-NN query touched %llu pages\n",
              static_cast<unsigned long long>(
                  tree->pool().stats().PagesVisited()));
  return 0;
}

// Shape similarity search over Fourier descriptors — the FOURIER workload
// of the paper's evaluation (§4, dataset 1). Polygons are described by the
// leading DFT coefficients of their boundary; similar shapes have nearby
// descriptors, so shape retrieval is k-NN in descriptor space.
//
//   $ ./shape_search

#include <cstdio>

#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"

using namespace ht;

int main() {
  // 50,000 polygon boundary descriptors, 16-d (8 complex coefficients).
  const uint32_t kDim = 16;
  Rng rng(11);
  Dataset shapes = GenFourier(50000, kDim, rng);

  MemPagedFile file(kDefaultPageSize);
  HybridTreeOptions options;
  options.dim = kDim;
  options.els_bits = 8;
  auto tree = HybridTree::Create(options, &file).ValueOrDie();
  for (size_t i = 0; i < shapes.size(); ++i) {
    HT_CHECK_OK(tree->Insert(shapes.Row(i), i));
  }
  auto stats = tree->ComputeStats().ValueOrDie();
  std::printf("indexed %zu shape descriptors\n%s\n", shapes.size(),
              stats.ToString().c_str());

  // Find the 8 most similar shapes to three probes, comparing the index's
  // work against a full scan.
  L2Metric l2;
  for (uint64_t probe : {100ull, 2000ull, 31337ull}) {
    tree->pool().ResetStats();
    auto nn = tree->SearchKnn(shapes.Row(probe), 8, l2).ValueOrDie();
    const uint64_t pages = tree->pool().stats().PagesVisited();
    std::printf("\nshapes similar to #%llu (8-NN, L2): ",
                static_cast<unsigned long long>(probe));
    for (const auto& [dist, id] : nn) {
      std::printf("%llu(%.3f) ", static_cast<unsigned long long>(id), dist);
    }
    const uint64_t scan_pages =
        (shapes.size() + DataNode::Capacity(kDim, kDefaultPageSize) - 1) /
        DataNode::Capacity(kDim, kDefaultPageSize);
    std::printf("\n  %llu page reads vs %llu for a linear scan (%.1f%%)\n",
                static_cast<unsigned long long>(pages),
                static_cast<unsigned long long>(scan_pages),
                100.0 * static_cast<double>(pages) /
                    static_cast<double>(scan_pages));
  }

  // Dimensionality trade-off: the paper truncates the descriptors to 8-d
  // and 12-d prefixes. Fewer coefficients = coarser shape matching but a
  // cheaper index; the implicit-dimensionality-reduction property (§3.3,
  // Lemma 1) means the hybrid tree already focuses its splits on the
  // informative leading coefficients.
  Dataset truncated = shapes.Prefix(8);
  MemPagedFile file8(kDefaultPageSize);
  HybridTreeOptions options8 = options;
  options8.dim = 8;
  auto tree8 = HybridTree::Create(options8, &file8).ValueOrDie();
  for (size_t i = 0; i < truncated.size(); ++i) {
    HT_CHECK_OK(tree8->Insert(truncated.Row(i), i));
  }
  tree8->pool().ResetStats();
  (void)tree8->SearchKnn(truncated.Row(100), 8, l2).ValueOrDie();
  std::printf("\n8-d prefix index: the same 8-NN probe costs %llu reads\n",
              static_cast<unsigned long long>(
                  tree8->pool().stats().PagesVisited()));
  return 0;
}

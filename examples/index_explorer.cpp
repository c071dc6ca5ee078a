// Index explorer: builds hybrid trees over each surrogate dataset, prints
// their per-level structure, and breaks down what a query actually costs —
// a guided tour of the data structure for new users.
//
//   $ ./index_explorer [n]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"

using namespace ht;

namespace {

void Explore(const char* name, Dataset data, double selectivity) {
  std::printf("\n=== %s: %zu vectors, %u-d ===\n", name, data.size(),
              data.dim());
  MemPagedFile file(kDefaultPageSize);
  HybridTreeOptions options;
  options.dim = data.dim();
  options.els_bits = 8;
  auto tree = BulkLoad(options, &file, data).ValueOrDie();

  TreeStats stats = tree->ComputeStats().ValueOrDie();
  std::printf("%s\n", stats.ToString().c_str());

  Rng rng(99);
  const double side = CalibrateBoxSide(data, selectivity, 20, rng);
  auto centers = MakeQueryCenters(data, 50, rng);
  uint64_t accesses = 0, results = 0;
  for (const auto& c : centers) {
    Box q = MakeBoxQuery(c, side);
    tree->pool().ResetStats();
    results += tree->SearchBox(q).ValueOrDie().size();
    accesses += tree->pool().stats().PagesVisited();
  }
  const double per_query =
      static_cast<double>(accesses) / static_cast<double>(centers.size());
  const double scan_pages = std::ceil(
      static_cast<double>(data.size()) /
      static_cast<double>(DataNode::Capacity(data.dim(), kDefaultPageSize)));
  std::printf(
      "window queries (side %.3f, %.2f%% selectivity): %.1f results, "
      "%.1f pages/query — %.1f%% of the %g-page scan "
      "(normalized I/O %.4f vs scan 0.1)\n",
      side, 100.0 * selectivity,
      static_cast<double>(results) / static_cast<double>(centers.size()),
      per_query, 100.0 * per_query / scan_pages, scan_pages,
      per_query / scan_pages);

  // Distance query under two different metrics on the same index.
  L1Metric l1;
  L2Metric l2;
  for (const DistanceMetric* m :
       std::initializer_list<const DistanceMetric*>{&l1, &l2}) {
    tree->pool().ResetStats();
    auto nn = tree->SearchKnn(centers[0], 5, *m).ValueOrDie();
    std::printf("5-NN under %s: nearest distance %.4f, %llu pages\n",
                m->Name().c_str(), nn.empty() ? 0.0 : nn[0].first,
                static_cast<unsigned long long>(
                    tree->pool().stats().PagesVisited()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  {
    Rng rng(1);
    Explore("FOURIER surrogate (shape descriptors)", GenFourier(n, 16, rng),
            0.0007);
  }
  {
    Rng rng(2);
    Dataset d = GenColhist(n, 64, rng);
    d.NormalizeUnitCube();
    Explore("COLHIST surrogate (color histograms)", std::move(d), 0.002);
  }
  {
    Rng rng(3);
    Explore("clustered synthetic", GenClustered(n, 8, 6, 0.05, rng), 0.002);
  }
  return 0;
}

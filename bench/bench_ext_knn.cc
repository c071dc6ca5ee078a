// Extension (paper §5 future work): k-NN and approximate k-NN. Compares
// hybrid tree vs SR-tree vs scan on exact k-NN (L1, following the paper's
// distance-query setup), then sweeps the (1+epsilon) approximation knob.

#include <set>

#include "bench_common.h"
#include "core/bulk_load.h"

using namespace ht;
using namespace ht::bench;

int main() {
  const size_t n = EnvSize("HT_BENCH_N", 20000);
  const size_t n_queries = Queries();
  const size_t k = 10;
  PrintHeader("Extension: k-NN and approximate k-NN",
              "paper §5 future work: \"support new types of queries like "
              "approximate nearest neighbor queries\"",
              "COLHIST surrogate 64-d, n=" + std::to_string(n) + ", k=" +
                  std::to_string(k) + ", L1 metric, queries=" +
                  std::to_string(n_queries));

  Rng rng(8000);
  Dataset data = GenColhist(n, 64, rng);
  data.NormalizeUnitCube();
  auto centers = MakeQueryCenters(data, n_queries, rng);
  L1Metric l1;
  BuildConfig config;

  std::printf("\nExact %zu-NN:\n", k);
  TablePrinter exact({"structure", "accesses/query", "CPU (us)/query"});
  std::vector<std::pair<IndexKind, QueryCosts>> measured;
  for (IndexKind kind :
       {IndexKind::kHybrid, IndexKind::kSrTree, IndexKind::kSeqScan}) {
    auto b = BuildIndex(kind, data, config).ValueOrDie();
    auto costs = RunKnnWorkload(b.index.get(), centers, k, l1).ValueOrDie();
    exact.AddRow({IndexKindName(kind),
                  TablePrinter::Num(costs.avg_accesses, 1),
                  TablePrinter::Num(costs.avg_cpu_seconds * 1e6, 1)});
    measured.emplace_back(kind, costs);
  }
  exact.Print();
  AnswerCheck answers;
  for (const auto& [kind, costs] : measured) {
    if (kind == IndexKind::kSeqScan) continue;
    answers.Expect(IndexKindName(kind), costs, measured.back().second);
  }

  std::printf("\nApproximate %zu-NN on the hybrid tree (epsilon sweep):\n", k);
  TablePrinter approx({"epsilon", "accesses/query", "avg dist ratio",
                       "recall@10"});
  auto bundle = BuildIndex(IndexKind::kHybrid, data, config).ValueOrDie();
  auto* hybrid = dynamic_cast<HybridIndexAdapter*>(bundle.index.get());
  SearchScratch scratch;
  std::vector<std::pair<double, uint64_t>> got;
  for (double eps : {0.0, 0.25, 0.5, 1.0, 2.0}) {
    uint64_t accesses = 0;
    double ratio_sum = 0.0;
    double recall_sum = 0.0;
    KnnSearchLimits limits;
    limits.epsilon = eps;
    for (const auto& c : centers) {
      auto want = BruteForceKnn(data, c, k, l1);
      hybrid->pool().ResetStats();
      HT_CHECK_OK(hybrid->tree().SearchKnnBoundedInto(c, k, l1, limits,
                                                      &scratch, &got));
      accesses += hybrid->pool().stats().PagesVisited();
      size_t hit = 0;
      double ratio = 0.0;
      for (size_t i = 0; i < got.size(); ++i) {
        ratio += want[i].first > 0 ? got[i].first / want[i].first : 1.0;
      }
      std::set<uint64_t> truth;
      for (auto& [d, id] : want) truth.insert(id);
      for (auto& [d, id] : got) {
        if (truth.count(id)) ++hit;
      }
      ratio_sum += ratio / static_cast<double>(got.size());
      recall_sum += static_cast<double>(hit) / static_cast<double>(k);
    }
    const double nq = static_cast<double>(centers.size());
    approx.AddRow({TablePrinter::Num(eps, 2),
                   TablePrinter::Num(static_cast<double>(accesses) / nq, 1),
                   TablePrinter::Num(ratio_sum / nq, 3),
                   TablePrinter::Num(recall_sum / nq, 3)});
  }
  approx.Print();
  std::printf(
      "Expected shape: accesses fall monotonically with epsilon while the "
      "distance ratio stays well under the (1+epsilon) bound and recall "
      "degrades gracefully.\n");
  return answers.ExitCode();
}

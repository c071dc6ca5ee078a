// Extension ablation (not a paper figure): bottom-up bulk loading vs
// incremental insertion — build time, pages used, data-node fill, and
// query cost on the same workload. Bulk loading is the natural companion
// to the paper's VAMSplit comparison (itself a bulk-load algorithm).

#include "bench_common.h"
#include "common/timing.h"
#include "core/bulk_load.h"

using namespace ht;
using namespace ht::bench;

int main() {
  const size_t n = EnvSize("HT_BENCH_N", 20000);
  const size_t n_queries = Queries();
  PrintHeader("Extension: bulk load vs incremental insertion",
              "repository extension (paper deploys in MARS; initial loads "
              "are bulk)",
              "COLHIST surrogate, n=" + std::to_string(n) +
                  ", selectivity=0.2%, queries=" + std::to_string(n_queries));

  TablePrinter table({"dim", "variant", "build (s)", "data pages", "fill",
                      "accesses/query", "CPU (us)/query"});
  for (uint32_t dim : {16u, 64u}) {
    Rng rng(7900 + dim);
    Dataset data = GenColhist(n, dim, rng);
    data.NormalizeUnitCube();
    BoxWorkload w = MakeBoxWorkload(data, kColhistSelectivity, n_queries, rng);

    HybridTreeOptions o;
    o.dim = dim;
    o.els_bits = 8;
    o.expected_query_side = w.side;

    // Incremental.
    {
      MemPagedFile file(o.page_size);
      WallTimer t;
      auto tree = HybridIndexAdapter::Create(o, &file).ValueOrDie();
      for (size_t i = 0; i < data.size(); ++i) {
        HT_CHECK_OK(tree->Insert(data.Row(i), i));
      }
      const double build = t.Seconds();
      TreeStats s = tree->tree().ComputeStats().ValueOrDie();
      auto costs = RunBoxWorkload(tree.get(), w.queries).ValueOrDie();
      table.AddRow({std::to_string(dim), "incremental",
                    TablePrinter::Num(build, 2),
                    std::to_string(s.data_nodes),
                    TablePrinter::Num(s.avg_data_utilization, 2),
                    TablePrinter::Num(costs.avg_accesses, 1),
                    TablePrinter::Num(costs.avg_cpu_seconds * 1e6, 1)});
    }
    // Bulk.
    {
      MemPagedFile file(o.page_size);
      WallTimer t;
      auto tree = BulkLoad(o, &file, data).ValueOrDie();
      const double build = t.Seconds();
      TreeStats s = tree->ComputeStats().ValueOrDie();
      uint64_t total = 0;
      WallTimer qt;
      size_t reps = 0;
      uint64_t accesses = 0;
      for (const auto& q : w.queries) {
        tree->pool().ResetStats();
        (void)tree->SearchBox(q).ValueOrDie();
        accesses += tree->pool().stats().PagesVisited();
      }
      do {
        for (const auto& q : w.queries) {
          total += tree->SearchBox(q).ValueOrDie().size();
        }
        ++reps;
      } while (qt.Seconds() < 0.05 && reps < 1000);
      table.AddRow(
          {std::to_string(dim), "bulk load", TablePrinter::Num(build, 2),
           std::to_string(s.data_nodes),
           TablePrinter::Num(s.avg_data_utilization, 2),
           TablePrinter::Num(static_cast<double>(accesses) /
                                 static_cast<double>(w.queries.size()),
                             1),
           TablePrinter::Num(qt.Seconds() * 1e6 /
                                 (static_cast<double>(reps) *
                                  static_cast<double>(w.queries.size())),
                             1)});
      (void)total;
    }
  }
  table.Print();
  std::printf(
      "Expected shape: bulk load builds several times faster, uses ~25%% "
      "fewer pages (0.9 vs ~0.67 fill), and queries at least as cheaply.\n");
  return 0;
}

// Figure 7(c),(d): distance-based queries under the Manhattan (L1) metric
// on COLHIST (the hB-tree is excluded, matching the paper: "hB-tree is not
// used since it does not support distance-based search"). Normalized I/O
// and CPU cost vs dimensionality for hybrid tree and SR-tree.

#include "bench_common.h"

using namespace ht;
using namespace ht::bench;

int main() {
  const size_t n = EnvSize("HT_BENCH_N", 20000);
  const size_t n_queries = Queries();
  PrintHeader("Figure 7(c),(d): distance-based queries (L1 metric)",
              "Chakrabarti & Mehrotra, ICDE 1999, Figure 7(c),(d)",
              "COLHIST surrogate, n=" + std::to_string(n) +
                  ", selectivity=0.2%, L1 range queries, queries=" +
                  std::to_string(n_queries));

  L1Metric l1;
  TablePrinter io({"dim", "HybridTree", "SR-tree", "SeqScan"});
  TablePrinter cpu({"dim", "HybridTree", "SR-tree", "SeqScan"});
  AnswerCheck answers;
  for (uint32_t dim : {16u, 32u, 64u}) {
    Rng rng(7700 + dim);
    Dataset data = GenColhist(n, dim, rng);
    data.NormalizeUnitCube();  // paper §3.2: normalized feature space
    const double radius =
        CalibrateRangeRadius(data, l1, kColhistSelectivity, 20, rng);
    auto centers = MakeQueryCenters(data, n_queries, rng);
    BuildConfig config;
    config.expected_query_side = radius / dim;  // rough box-side analogue

    auto scan = BuildIndex(IndexKind::kSeqScan, data, config);
    HT_CHECK_OK(scan.status());
    auto scan_costs = RunRangeWorkload(scan.ValueOrDie().index.get(), centers,
                                       radius, l1);
    HT_CHECK_OK(scan_costs.status());
    const uint64_t scan_pages =
        static_cast<uint64_t>(scan_costs.ValueOrDie().avg_accesses);

    std::vector<std::string> io_row = {std::to_string(dim)};
    std::vector<std::string> cpu_row = {std::to_string(dim)};
    for (IndexKind kind : {IndexKind::kHybrid, IndexKind::kSrTree}) {
      auto bundle = BuildIndex(kind, data, config);
      HT_CHECK_OK(bundle.status());
      auto costs = RunRangeWorkload(bundle.ValueOrDie().index.get(), centers,
                                    radius, l1);
      HT_CHECK_OK(costs.status());
      answers.Expect(IndexKindName(kind) + " at dim " + std::to_string(dim),
                     costs.ValueOrDie(), scan_costs.ValueOrDie());
      NormalizedCosts norm = Normalize(costs.ValueOrDie(), false, scan_pages,
                                       scan_costs.ValueOrDie());
      io_row.push_back(TablePrinter::Num(norm.io, 4));
      cpu_row.push_back(TablePrinter::Num(norm.cpu, 4));
    }
    io_row.push_back("0.1000");
    cpu_row.push_back("1.0000");
    io.AddRow(io_row);
    cpu.AddRow(cpu_row);
  }
  std::printf("\nNormalized I/O cost (Figure 7(c)):\n");
  io.Print();
  std::printf("\nNormalized CPU cost (Figure 7(d)):\n");
  cpu.Print();
  std::printf(
      "Paper's shape: hybrid below SR-tree. Measured: hybrid wins both "
      "metrics at 64-d and CPU everywhere; SR-tree's bounding spheres help "
      "it ~10%% on I/O at 16/32-d (L1 balls suit spheres; see "
      "EXPERIMENTS.md).\n");
  return answers.ExitCode();
}

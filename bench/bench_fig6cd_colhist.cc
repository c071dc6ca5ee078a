// Figure 6(c),(d): scalability to dimensionality on high-dimensional data
// — the COLHIST color-histogram dataset (paper: 70K points; 16/32/64-d).
// Normalized I/O and CPU cost for hybrid tree, hB-tree, SR-tree vs the
// sequential-scan reference.

#include "bench_common.h"

using namespace ht;
using namespace ht::bench;

int main() {
  const size_t n = EnvSize("HT_BENCH_N", 20000);
  const size_t n_queries = Queries();
  PrintHeader("Figure 6(c),(d): dimensionality scalability, COLHIST",
              "Chakrabarti & Mehrotra, ICDE 1999, Figure 6(c),(d)",
              "COLHIST surrogate, n=" + std::to_string(n) +
                  " (paper: 70K), selectivity=0.2%, queries=" +
                  std::to_string(n_queries));

  TablePrinter io({"dim", "HybridTree", "hB-tree", "SR-tree", "SeqScan"});
  TablePrinter cpu({"dim", "HybridTree", "hB-tree", "SR-tree", "SeqScan"});
  AnswerCheck answers;
  for (uint32_t dim : {16u, 32u, 64u}) {
    Rng rng(7400 + dim);
    Dataset data = GenColhist(n, dim, rng);
    data.NormalizeUnitCube();  // paper §3.2: normalized feature space
    BoxWorkload w = MakeBoxWorkload(data, kColhistSelectivity, n_queries, rng);
    BuildConfig config;
    config.expected_query_side = w.side;

    auto scan = BuildIndex(IndexKind::kSeqScan, data, config);
    HT_CHECK_OK(scan.status());
    auto scan_costs = RunBoxWorkload(scan.ValueOrDie().index.get(), w.queries);
    HT_CHECK_OK(scan_costs.status());
    const uint64_t scan_pages =
        static_cast<uint64_t>(scan_costs.ValueOrDie().avg_accesses);

    std::vector<std::string> io_row = {std::to_string(dim)};
    std::vector<std::string> cpu_row = {std::to_string(dim)};
    for (IndexKind kind : {IndexKind::kHybrid, IndexKind::kHbTree,
                           IndexKind::kSrTree}) {
      QueryCosts costs = MeasureBox(kind, data, config, w.queries);
      answers.Expect(IndexKindName(kind) + " at dim " + std::to_string(dim),
                     costs, scan_costs.ValueOrDie());
      NormalizedCosts norm =
          Normalize(costs, false, scan_pages, scan_costs.ValueOrDie());
      io_row.push_back(TablePrinter::Num(norm.io, 4));
      cpu_row.push_back(TablePrinter::Num(norm.cpu, 4));
    }
    io_row.push_back("0.1000");
    cpu_row.push_back("1.0000");
    io.AddRow(io_row);
    cpu.AddRow(cpu_row);
  }
  std::printf("\nNormalized I/O cost (Figure 6(c)):\n");
  io.Print();
  std::printf("\nNormalized CPU cost (Figure 6(d)):\n");
  cpu.Print();
  std::printf(
      "Paper's shape: hybrid < hB < SR everywhere. Measured: hybrid lowest "
      "on both metrics at every dimensionality and the only structure below "
      "the 0.1 scan line at 64-d; our hB trails SR on synthetic histograms "
      "(no dead-space elimination; see EXPERIMENTS.md).\n");
  return answers.ExitCode();
}

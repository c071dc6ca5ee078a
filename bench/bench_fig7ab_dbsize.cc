// Figure 7(a),(b): scalability with database size on 64-d COLHIST (paper:
// 25K..70K tuples). Normalized I/O and CPU cost vs size; the paper reports
// the hybrid tree an order of magnitude below the competition with a
// *decreasing* normalized cost (sublinear absolute growth).

#include "bench_common.h"

using namespace ht;
using namespace ht::bench;

int main() {
  const size_t n_max = EnvSize("HT_BENCH_N", 25000);
  const size_t n_queries = Queries();
  PrintHeader("Figure 7(a),(b): database-size scalability, 64-d COLHIST",
              "Chakrabarti & Mehrotra, ICDE 1999, Figure 7(a),(b)",
              "COLHIST surrogate 64-d, sizes up to " + std::to_string(n_max) +
                  " (paper: 25K..70K), selectivity=0.2%, queries=" +
                  std::to_string(n_queries));

  Rng data_rng(7500);
  Dataset full = GenColhist(n_max, 64, data_rng);
  full.NormalizeUnitCube();  // paper §3.2: normalized feature space

  TablePrinter io({"size", "HybridTree", "hB-tree", "SR-tree", "SeqScan"});
  TablePrinter cpu({"size", "HybridTree", "hB-tree", "SR-tree", "SeqScan"});
  AnswerCheck answers;
  for (double frac : {0.4, 0.6, 0.8, 1.0}) {
    const size_t n = static_cast<size_t>(frac * static_cast<double>(n_max));
    Rng rng(7600 + n);
    Dataset data = full.Head(n);
    BoxWorkload w = MakeBoxWorkload(data, kColhistSelectivity, n_queries, rng);
    BuildConfig config;
    config.expected_query_side = w.side;

    auto scan = BuildIndex(IndexKind::kSeqScan, data, config);
    HT_CHECK_OK(scan.status());
    auto scan_costs = RunBoxWorkload(scan.ValueOrDie().index.get(), w.queries);
    HT_CHECK_OK(scan_costs.status());
    const uint64_t scan_pages =
        static_cast<uint64_t>(scan_costs.ValueOrDie().avg_accesses);

    std::vector<std::string> io_row = {std::to_string(n)};
    std::vector<std::string> cpu_row = {std::to_string(n)};
    for (IndexKind kind : {IndexKind::kHybrid, IndexKind::kHbTree,
                           IndexKind::kSrTree}) {
      QueryCosts costs = MeasureBox(kind, data, config, w.queries);
      answers.Expect(IndexKindName(kind) + " at n " + std::to_string(n), costs,
                     scan_costs.ValueOrDie());
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
  std::printf("\nNormalized I/O cost (Figure 7(a)):\n");
  io.Print();
  std::printf("\nNormalized CPU cost (Figure 7(b)):\n");
  cpu.Print();
  std::printf(
      "Expected shape: HybridTree far below the others at every size, with "
      "normalized cost flat-to-decreasing in size (Figure 7(a),(b)).\n");
  return answers.ExitCode();
}

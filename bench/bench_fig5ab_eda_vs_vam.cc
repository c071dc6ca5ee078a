// Figure 5(a),(b): impact of the EDA-optimal node-splitting algorithms.
// Hybrid trees built with EDA-optimal splits vs. VAMSplit-style splits
// (max-variance dimension, median position) on COLHIST data; the paper
// reports average disk accesses (a) and average CPU time (b) per query at
// 16/32/64 dimensions, with EDA-optimal consistently ahead and the gap
// widening with dimensionality. Both trees' answers are checked against
// the sequential scan's; the bench exits 1 on a mismatch.

#include "bench_common.h"

using namespace ht;
using namespace ht::bench;

int main() {
  const size_t n = EnvSize("HT_BENCH_N", 20000);
  const size_t n_queries = Queries();
  PrintHeader("Figure 5(a),(b): EDA-optimal vs VAM split",
              "Chakrabarti & Mehrotra, ICDE 1999, Figure 5(a),(b)",
              "COLHIST surrogate, n=" + std::to_string(n) + ", selectivity=0.2%, queries=" +
                  std::to_string(n_queries) + ", page=4096");

  TablePrinter table({"dim", "EDA accesses", "VAM accesses", "EDA CPU (ms)",
                      "VAM CPU (ms)", "VAM/EDA IO"});
  AnswerCheck answers;
  for (uint32_t dim : {16u, 32u, 64u}) {
    Rng rng(7000 + dim);
    Dataset data = GenColhist(n, dim, rng);
    data.NormalizeUnitCube();  // paper §3.2: normalized feature space
    BoxWorkload w = MakeBoxWorkload(data, kColhistSelectivity, n_queries, rng);
    BuildConfig config;
    config.expected_query_side = w.side;

    QueryCosts eda = MeasureBox(IndexKind::kHybrid, data, config, w.queries);
    QueryCosts vam =
        MeasureBox(IndexKind::kHybridVam, data, config, w.queries);
    const QueryCosts scan =
        MeasureBox(IndexKind::kSeqScan, data, config, w.queries);
    answers.Expect("EDA at dim " + std::to_string(dim), eda, scan);
    answers.Expect("VAM at dim " + std::to_string(dim), vam, scan);
    table.AddRow({std::to_string(dim), TablePrinter::Num(eda.avg_accesses, 1),
                  TablePrinter::Num(vam.avg_accesses, 1),
                  TablePrinter::Num(eda.avg_cpu_seconds * 1e3, 3),
                  TablePrinter::Num(vam.avg_cpu_seconds * 1e3, 3),
                  TablePrinter::Num(vam.avg_accesses /
                                        std::max(1.0, eda.avg_accesses),
                                    2)});
  }
  table.Print();
  std::printf(
      "Paper's shape: EDA-optimal <= VAM at every dimensionality. Our "
      "measured shape: near-parity (VAM/EDA -> 1.0 as d grows). The EDA "
      "optimality theorem assumes uniformly-placed queries; this workload "
      "centers queries on data points (see EXPERIMENTS.md for the "
      "analysis).\n");
  return answers.ExitCode();
}

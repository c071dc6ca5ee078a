// Extension (beyond the paper): query hot-path microbenchmark for the
// batched data-page distance kernel (DistanceMetric::BatchDistanceWithBound)
// and the zero-allocation SearchScratch k-NN path.
//
// Part 1 scans real serialized data pages (paper page size, FOURIER 16-d)
// three ways and reports points/second:
//   scalar      one virtual Distance() call per row (the pre-batch path)
//   batch       one BatchDistanceWithBound() call per page at bound
//               +infinity (no row abandoned: every distance exact)
//   batch+bound one BatchDistanceWithBound() call per page, bound set to
//               the query's true k-NN distance (the bound a k-NN search
//               reaches at steady state) -> early abandoning kicks in.
//
// Part 2 runs one k-NN workload against one tree twice: with the kernels
// forced to the scalar dispatch tier (kernels::ForceTier, the reference
// tier — it also turns the quantized sidecars off) and at the best tier
// this CPU supports. It cross-checks that the answers are byte-identical
// and reports QPS.
//
// Machine-readable output: BENCH_hotpath.json in the working directory.
// Exit status is nonzero if the two tiers' answers differ (identity gate —
// run under CI via --smoke).
//
// Env overrides (on top of bench_common.h): HT_BENCH_N (default 100000).
// Flags: --smoke (small n, few queries; same checks).

#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/timing.h"
#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "core/node.h"
#include "geometry/kernels/kernels.h"
#include "geometry/metrics.h"

using namespace ht;
using namespace ht::bench;

namespace {

constexpr uint32_t kDim = 16;
constexpr size_t kPageSize = kDefaultPageSize;
constexpr size_t kKnnK = 10;

/// The dataset serialized as real data pages at real capacity.
struct PageSet {
  std::vector<std::vector<uint8_t>> pages;
  size_t total_points = 0;
};

PageSet SerializePages(const Dataset& data) {
  PageSet ps;
  const size_t cap = DataNode::Capacity(kDim, kPageSize);
  for (size_t base = 0; base < data.size(); base += cap) {
    DataNode node;
    const size_t n = std::min(cap, data.size() - base);
    for (size_t i = 0; i < n; ++i) {
      const auto row = data.Row(base + i);
      node.entries.push_back(
          {base + i, std::vector<float>(row.begin(), row.end())});
    }
    ps.pages.emplace_back(kPageSize);
    node.Serialize(ps.pages.back().data(), kPageSize, kDim);
    ps.total_points += n;
  }
  return ps;
}

double Checksum(const std::vector<double>& v, double bound) {
  double s = 0.0;
  for (double d : v) {
    if (d <= bound) s += d;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const size_t n = smoke ? 20000 : EnvSize("HT_BENCH_N", 100000);
  const size_t n_queries = smoke ? 20 : Queries();
  const kernels::SimdTier best = kernels::BestSupportedTier();
  PrintHeader(
      "Extension: batched distance kernels + zero-allocation k-NN path",
      "beyond the paper: data-page scan throughput, scalar vs batch vs "
      "batch+early-abandon; end-to-end k-NN QPS",
      "FOURIER 16-d, n=" + std::to_string(n) + ", page=" +
          std::to_string(kPageSize) + "B, queries=" +
          std::to_string(n_queries) + ", k=" + std::to_string(kKnnK) +
          ", L2 metric, best tier=" + kernels::TierName(best));

  Rng rng(20260806);
  Dataset data = GenFourier(n, kDim, rng);
  auto centers = MakeQueryCenters(data, n_queries, rng);
  L2Metric l2;

  // The tree for part 2 (and for the true k-NN bounds used in part 1).
  HybridTreeOptions opts;
  opts.dim = kDim;
  opts.page_size = kPageSize;
  MemPagedFile file(kPageSize);
  auto tree = BulkLoad(opts, &file, data).ValueOrDie();

  // Per-query k-NN distances = the steady-state search bound.
  std::vector<double> knn_bound(centers.size());
  for (size_t q = 0; q < centers.size(); ++q) {
    auto nn = tree->SearchKnn(centers[q], kKnnK, l2).ValueOrDie();
    knn_bound[q] = nn.back().first;
  }

  // -------------------------------------------------------------------
  // Part 1: raw data-page scan throughput.
  // -------------------------------------------------------------------
  PageSet ps = SerializePages(data);
  std::vector<double> out(DataNode::Capacity(kDim, kPageSize));
  double sink = 0.0;

  auto scan_pass = [&](int mode, size_t q) {
    const std::span<const float> query(centers[q]);
    const double bound = knn_bound[q];
    for (const auto& page : ps.pages) {
      DataPageScan scan(page.data(), kPageSize, kDim);
      const size_t rows = scan.count();
      const float* blk = scan.block();
      if (mode == 0 || blk == nullptr) {
        for (size_t i = 0; i < rows; ++i) {
          out[i] = l2.Distance(query, scan.vec(i));
        }
      } else if (mode == 1) {
        l2.BatchDistanceWithBound(query, blk, scan.stride_floats(), rows,
                                  std::numeric_limits<double>::infinity(),
                                  out.data());
      } else {
        l2.BatchDistanceWithBound(query, blk, scan.stride_floats(), rows,
                                  bound, out.data());
      }
      sink += Checksum(out, bound);
    }
  };

  const char* kModeNames[] = {"scalar", "batch", "batch+bound"};
  double points_per_sec[3] = {0, 0, 0};
  for (int mode = 0; mode < 3; ++mode) {
    scan_pass(mode, 0);  // warm-up
    WallTimer t;
    size_t scanned = 0;
    for (size_t q = 0; q < centers.size(); ++q) {
      scan_pass(mode, q);
      scanned += ps.total_points;
    }
    points_per_sec[mode] = static_cast<double>(scanned) / t.Seconds();
  }

  std::printf("\nData-page scan throughput (%zu pages, %zu points):\n",
              ps.pages.size(), ps.total_points);
  TablePrinter kernel_table({"kernel", "Mpts/s", "speedup vs scalar"});
  for (int mode = 0; mode < 3; ++mode) {
    kernel_table.AddRow({kModeNames[mode],
                         TablePrinter::Num(points_per_sec[mode] / 1e6, 1),
                         TablePrinter::Num(
                             points_per_sec[mode] / points_per_sec[0], 2)});
  }
  kernel_table.Print();

  // -------------------------------------------------------------------
  // Part 2: end-to-end k-NN QPS, scalar dispatch tier vs the best tier.
  // -------------------------------------------------------------------
  const kernels::SimdTier tiers[2] = {kernels::SimdTier::kScalar, best};
  SearchScratch scratch;
  std::vector<std::pair<double, uint64_t>> nn;
  std::vector<std::vector<std::pair<double, uint64_t>>> ref(centers.size());
  bool identical = true;
  double qps[2] = {0, 0};
  for (int which = 0; which < 2; ++which) {
    kernels::ForceTier(tiers[which]);
    // Warm-up pass (buffer pool, node cache, sidecars, scratch).
    for (size_t q = 0; q < centers.size(); ++q) {
      HT_CHECK_OK(tree->SearchKnnInto(centers[q], kKnnK, l2, &scratch, &nn));
    }
    // Cross-check against the scalar tier's answers.
    for (size_t q = 0; q < centers.size(); ++q) {
      HT_CHECK_OK(tree->SearchKnnInto(centers[q], kKnnK, l2, &scratch, &nn));
      if (which == 0) {
        ref[q] = nn;
      } else if (nn != ref[q]) {
        identical = false;
      }
    }
    WallTimer pure;
    for (size_t q = 0; q < centers.size(); ++q) {
      HT_CHECK_OK(tree->SearchKnnInto(centers[q], kKnnK, l2, &scratch, &nn));
    }
    qps[which] = static_cast<double>(centers.size()) / pure.Seconds();
  }
  kernels::ClearForcedTier();

  std::printf("\nEnd-to-end k-NN (k=%zu, %zu queries):\n", kKnnK,
              centers.size());
  TablePrinter knn_table({"tier", "QPS", "speedup"});
  knn_table.AddRow({"scalar", TablePrinter::Num(qps[0], 0), "1.00"});
  knn_table.AddRow({kernels::TierName(best), TablePrinter::Num(qps[1], 0),
                    TablePrinter::Num(qps[1] / qps[0], 2)});
  knn_table.Print();
  std::printf("Cross-check: %s results %s\n", kernels::TierName(best),
              identical ? "byte-identical to the scalar tier"
                        : "MISMATCH (BUG)");
  std::printf("(checksum %.6f)\n", sink);

  // Machine-readable record.
  FILE* json = std::fopen("BENCH_hotpath.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"hotpath\",\n"
                 "  \"dataset\": \"fourier\",\n"
                 "  \"dim\": %u,\n"
                 "  \"n\": %zu,\n"
                 "  \"queries\": %zu,\n"
                 "  \"k\": %zu,\n"
                 "  \"page_size\": %zu,\n"
                 "  \"scan_points_per_sec\": {\n"
                 "    \"scalar\": %.0f,\n"
                 "    \"batch\": %.0f,\n"
                 "    \"batch_bound\": %.0f\n"
                 "  },\n"
                 "  \"scan_speedup_batch\": %.3f,\n"
                 "  \"scan_speedup_batch_bound\": %.3f,\n"
                 "  \"best_tier\": \"%s\",\n"
                 "  \"knn_qps\": {\"scalar\": %.1f, \"best\": %.1f},\n"
                 "  \"knn_speedup\": %.3f,\n"
                 "  \"results_identical\": %s\n"
                 "}\n",
                 kDim, n, centers.size(), kKnnK, kPageSize,
                 points_per_sec[0], points_per_sec[1], points_per_sec[2],
                 points_per_sec[1] / points_per_sec[0],
                 points_per_sec[2] / points_per_sec[0],
                 kernels::TierName(best), qps[0], qps[1], qps[1] / qps[0],
                 identical ? "true" : "false");
    std::fclose(json);
    std::printf("Wrote BENCH_hotpath.json\n");
  }
  return identical ? 0 : 1;
}

// Extension (beyond the paper): SIMD distance kernels + per-page 8-bit
// quantized filter-then-refine, measured end to end on scan-heavy range
// and k-NN workloads.
//
// Three configurations run the SAME queries against structurally identical
// trees; results are cross-checked bitwise (the whole point of the design
// is that the fast paths are invisible in the output):
//   baseline    batch kernels forced to the scalar tier, no sidecars
//               (the hot path exactly as before this optimization)
//   simd        batch kernels at the best tier this CPU supports
//   simd+quant  best tier + quantized filter-then-refine sidecars
//
// The filter columns report, over one measured round, how many scanned
// points the code-level lower bound pruned before any exact distance was
// computed (IoStats::scan_points / quant_refined / quant_pruned). Each
// pass is timed on the thread's CPU clock (CpuTimer), so
// time the thread spends preempted on a shared host is not charged to it;
// each config's QPS is the median, with its quartiles, of 11 interleaved
// rounds, and a speedup is a ratio of medians.
//
// Machine-readable output: BENCH_quant.json in the working directory,
// with the host it ran on (nproc, best SIMD tier, compiler, build type).
// Exit status is nonzero if any configuration's results differ (identity
// gate — run under CI via --smoke).
//
// Env overrides (on top of bench_common.h): HT_BENCH_N (default 100000).
// Flags: --smoke (small n, few queries; same checks); --cursor
// (additionally measures k-NN through the bound-carrying KnnCursor —
// OpenKnnCursor with limit=k, pulling k entries — per config, with its
// own identity gate against the baseline and the cursor pass's filter
// counters — the shared scan counters over that pass alone — in a
// "cursor" JSON section).

#include "bench_common.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/timing.h"
#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "geometry/kernels/kernels.h"
#include "geometry/metrics.h"

using namespace ht;
using namespace ht::bench;

namespace {

constexpr uint32_t kDim = 16;
constexpr size_t kPageSize = kDefaultPageSize;
constexpr size_t kKnnK = 10;
constexpr int kRounds = 11;

#ifndef HT_BUILD_TYPE
#define HT_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

struct Config {
  const char* name;
  kernels::SimdTier tier;
  bool quant;
};

/// One config's per-round QPS: median and quartiles (linear interpolation
/// between order statistics).
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Spread SpreadOf(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto at = [&](double p) {
    const double rank = p * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// "median (q1-q3)" for the table.
std::string SpreadCell(const Spread& s) {
  return TablePrinter::Num(s.median, 0) + " (" + TablePrinter::Num(s.q1, 0) +
         "-" + TablePrinter::Num(s.q3, 0) + ")";
}

/// {"median": m, "q1": a, "q3": b} for the JSON.
std::string SpreadJson(const Spread& s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"median\": %.1f, \"q1\": %.1f, \"q3\": %.1f}", s.median,
                s.q1, s.q3);
  return buf;
}

struct Measured {
  std::vector<double> range_qps;  // one entry per round
  std::vector<double> knn_qps;
  uint64_t scan_points = 0;
  uint64_t refined = 0;
  uint64_t pruned = 0;
  // --cursor mode only: k-NN through the bound-carrying KnnCursor.
  std::vector<double> cursor_qps;
  uint64_t cursor_scanned = 0;
  uint64_t cursor_refined = 0;
  uint64_t cursor_pruned = 0;
};

/// One cursor-path k-NN: the first k entries of a limit=k cursor.
void CursorKnn(const HybridTree& tree, std::span<const float> center,
               const DistanceMetric& metric,
               std::vector<std::pair<double, uint64_t>>* out) {
  KnnCursorOptions copts;
  copts.limit = kKnnK;
  auto cursor = tree.OpenKnnCursor(center, metric, copts);
  out->clear();
  while (out->size() < kKnnK) {
    auto next = cursor.Next().ValueOrDie();
    if (!next.has_value()) break;
    out->push_back(*next);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool cursor_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--cursor") == 0) cursor_mode = true;
  }
  const size_t n = smoke ? 20000 : EnvSize("HT_BENCH_N", 100000);
  const size_t n_queries = smoke ? 20 : Queries();

  const kernels::SimdTier best = kernels::BestSupportedTier();
  PrintHeader(
      "Extension: SIMD dispatch + quantized filter-then-refine",
      "beyond the paper: scan-heavy range/k-NN throughput, scalar kernels "
      "vs SIMD vs SIMD+8-bit-code filtering (results byte-identical)",
      "FOURIER 16-d, n=" + std::to_string(n) + ", page=" +
          std::to_string(kPageSize) + "B, queries=" +
          std::to_string(n_queries) + ", k=" + std::to_string(kKnnK) +
          ", L2 metric, best tier=" + kernels::TierName(best));

  Rng rng(20260809);
  Dataset data = GenFourier(n, kDim, rng);
  auto centers = MakeQueryCenters(data, n_queries, rng);
  L2Metric l2;

  // Two structurally identical trees (runtime knobs do not affect build):
  // sidecars off for the first two configs, on for the third.
  HybridTreeOptions opts;
  opts.dim = kDim;
  opts.page_size = kPageSize;
  opts.quant_sidecars = false;
  MemPagedFile file_plain(kPageSize), file_quant(kPageSize);
  auto tree_plain = BulkLoad(opts, &file_plain, data).ValueOrDie();
  opts.quant_sidecars = true;
  auto tree_quant = BulkLoad(opts, &file_quant, data).ValueOrDie();

  // Scan-heavy range radii: the true k-NN distance per query (every page
  // the traversal cannot prune gets scanned; most scanned points miss).
  std::vector<double> radius(centers.size());
  for (size_t q = 0; q < centers.size(); ++q) {
    auto nn = tree_plain->SearchKnn(centers[q], kKnnK, l2).ValueOrDie();
    radius[q] = nn.back().first;
  }

  const Config configs[] = {
      {"baseline (scalar kernels)", kernels::SimdTier::kScalar, false},
      {"simd", best, false},
      {"simd+quant", best, true},
  };
  const size_t n_configs = sizeof(configs) / sizeof(configs[0]);

  // Reference results from config 0; later configs must match bitwise.
  std::vector<std::vector<uint64_t>> ref_range(centers.size());
  std::vector<std::vector<std::pair<double, uint64_t>>> ref_knn(
      centers.size());
  bool identical = true;

  Measured m[3];
  SearchScratch scratch;
  std::vector<uint64_t> ids;
  std::vector<std::pair<double, uint64_t>> nn;

  for (size_t c = 0; c < n_configs; ++c) {
    const Config& cfg = configs[c];
    HybridTree* tree = cfg.quant ? tree_quant.get() : tree_plain.get();
    kernels::ForceTier(cfg.tier);

    // Warm-up (buffer pool, node cache, scratch, lazy sidecar builds).
    for (size_t q = 0; q < centers.size(); ++q) {
      HT_CHECK_OK(
          tree->SearchRangeInto(centers[q], radius[q], l2, &scratch, &ids));
      HT_CHECK_OK(tree->SearchKnnInto(centers[q], kKnnK, l2, &scratch, &nn));
    }

    // Identity check against the baseline config's answers. In --cursor
    // mode the bound-carrying cursor must reproduce them too.
    for (size_t q = 0; q < centers.size(); ++q) {
      HT_CHECK_OK(
          tree->SearchRangeInto(centers[q], radius[q], l2, &scratch, &ids));
      HT_CHECK_OK(tree->SearchKnnInto(centers[q], kKnnK, l2, &scratch, &nn));
      if (c == 0) {
        ref_range[q] = ids;
        ref_knn[q] = nn;
      } else if (ids != ref_range[q] || nn != ref_knn[q]) {
        identical = false;
      }
      if (cursor_mode) {
        CursorKnn(*tree, centers[q], l2, &nn);
        if (nn != ref_knn[q]) identical = false;
      }
    }

  }

  // Measured passes: kRounds round-robin rounds over the configs.
  // Interleaving decorrelates slow machine drift from the config order,
  // and the thread CPU clock leaves out the time a co-tenant preempts the
  // pass. The filter counters are deterministic per round (stats window =
  // one round's queries), so the last round's snapshot is as good as any.
  const auto pass_qps = [&](const auto& one_query) {
    const CpuTimer timer;
    for (size_t q = 0; q < centers.size(); ++q) one_query(q);
    return static_cast<double>(centers.size()) / timer.Seconds();
  };
  for (int r = 0; r < kRounds; ++r) {
    for (size_t c = 0; c < n_configs; ++c) {
      const Config& cfg = configs[c];
      HybridTree* tree = cfg.quant ? tree_quant.get() : tree_plain.get();
      kernels::ForceTier(cfg.tier);
      tree->pool().ResetStats();
      m[c].range_qps.push_back(pass_qps([&](size_t q) {
        HT_CHECK_OK(
            tree->SearchRangeInto(centers[q], radius[q], l2, &scratch, &ids));
      }));
      m[c].knn_qps.push_back(pass_qps([&](size_t q) {
        HT_CHECK_OK(tree->SearchKnnInto(centers[q], kKnnK, l2, &scratch, &nn));
      }));
      // Every search path charges the same scan counters, so each pass's
      // share is the snapshot difference around it.
      const IoStats batch = tree->pool().stats();
      m[c].scan_points = batch.scan_points;
      m[c].refined = batch.quant_refined;
      m[c].pruned = batch.quant_pruned;
      if (cursor_mode) {
        m[c].cursor_qps.push_back(pass_qps(
            [&](size_t q) { CursorKnn(*tree, centers[q], l2, &nn); }));
        const IoStats cur = tree->pool().stats().Delta(batch);
        m[c].cursor_scanned = cur.scan_points;
        m[c].cursor_refined = cur.quant_refined;
        m[c].cursor_pruned = cur.quant_pruned;
      }
    }
  }
  kernels::ClearForcedTier();

  Spread range[3], knn[3], cursor[3];
  for (size_t c = 0; c < n_configs; ++c) {
    range[c] = SpreadOf(m[c].range_qps);
    knn[c] = SpreadOf(m[c].knn_qps);
    cursor[c] = SpreadOf(m[c].cursor_qps);
  }
  const auto rate = [](uint64_t pruned, uint64_t scanned) {
    return scanned > 0
               ? static_cast<double>(pruned) / static_cast<double>(scanned)
               : 0.0;
  };

  std::printf(
      "\nScan-heavy query throughput (%zu queries; QPS on the thread CPU "
      "clock, median (q1-q3) of %d rounds):\n",
      centers.size(), kRounds);
  TablePrinter table({"config", "range QPS", "knn QPS", "range speedup",
                      "knn speedup", "filter rate"});
  for (size_t c = 0; c < n_configs; ++c) {
    table.AddRow(
        {configs[c].name, SpreadCell(range[c]), SpreadCell(knn[c]),
         TablePrinter::Num(range[c].median / range[0].median, 2),
         TablePrinter::Num(knn[c].median / knn[0].median, 2),
         TablePrinter::Num(100.0 * rate(m[c].pruned, m[c].scan_points), 1) +
             "%"});
  }
  table.Print();
  if (cursor_mode) {
    std::printf("\nCursor-path k-NN (limit=k bound-carrying cursor):\n");
    TablePrinter ctable({"config", "cursor knn QPS", "cursor speedup",
                         "cursor filter rate"});
    for (size_t c = 0; c < n_configs; ++c) {
      ctable.AddRow(
          {configs[c].name, SpreadCell(cursor[c]),
           TablePrinter::Num(cursor[c].median / cursor[0].median, 2),
           TablePrinter::Num(
               100.0 * rate(m[c].cursor_pruned, m[c].cursor_scanned), 1) +
               "%"});
    }
    ctable.Print();
  }
  std::printf(
      "simd+quant filter: %llu points scanned, %llu refined, %llu pruned\n",
      static_cast<unsigned long long>(m[2].scan_points),
      static_cast<unsigned long long>(m[2].refined),
      static_cast<unsigned long long>(m[2].pruned));
  std::printf("Cross-check: %s\n",
              identical ? "all configurations byte-identical"
                        : "RESULT MISMATCH (BUG)");

  FILE* json = std::fopen("BENCH_quant.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"bench\": \"quant\",\n"
        "  \"host\": {\"nproc\": %u, \"best_tier\": \"%s\", "
        "\"compiler\": \"%s\", \"build_type\": \"%s\"},\n"
        "  \"dataset\": \"fourier\",\n"
        "  \"dim\": %u,\n"
        "  \"n\": %zu,\n"
        "  \"queries\": %zu,\n"
        "  \"k\": %zu,\n"
        "  \"timing\": \"thread CPU time per pass; median and quartiles of "
        "%d interleaved rounds\",\n"
        "  \"range_qps\": {\"baseline\": %s, \"simd\": %s, "
        "\"simd_quant\": %s},\n"
        "  \"knn_qps\": {\"baseline\": %s, \"simd\": %s, "
        "\"simd_quant\": %s},\n"
        "  \"range_speedup\": {\"simd\": %.3f, \"simd_quant\": %.3f},\n"
        "  \"knn_speedup\": {\"simd\": %.3f, \"simd_quant\": %.3f},\n"
        "  \"filter\": {\"scan_points\": %llu, \"refined\": %llu, "
        "\"pruned\": %llu, \"prune_rate\": %.4f},\n"
        "  \"results_identical\": %s",
        std::thread::hardware_concurrency(), kernels::TierName(best),
        kCompiler, HT_BUILD_TYPE, kDim, n, centers.size(), kKnnK, kRounds,
        SpreadJson(range[0]).c_str(), SpreadJson(range[1]).c_str(),
        SpreadJson(range[2]).c_str(), SpreadJson(knn[0]).c_str(),
        SpreadJson(knn[1]).c_str(), SpreadJson(knn[2]).c_str(),
        range[1].median / range[0].median, range[2].median / range[0].median,
        knn[1].median / knn[0].median, knn[2].median / knn[0].median,
        static_cast<unsigned long long>(m[2].scan_points),
        static_cast<unsigned long long>(m[2].refined),
        static_cast<unsigned long long>(m[2].pruned),
        rate(m[2].pruned, m[2].scan_points), identical ? "true" : "false");
    if (cursor_mode) {
      std::fprintf(
          json,
          ",\n"
          "  \"cursor\": {\n"
          "    \"knn_qps\": {\"baseline\": %s, \"simd\": %s, "
          "\"simd_quant\": %s},\n"
          "    \"knn_speedup\": {\"simd\": %.3f, \"simd_quant\": %.3f},\n"
          "    \"filter\": {\"scan_points\": %llu, \"refined\": %llu, "
          "\"pruned\": %llu, \"prune_rate\": %.4f}\n"
          "  }\n",
          SpreadJson(cursor[0]).c_str(), SpreadJson(cursor[1]).c_str(),
          SpreadJson(cursor[2]).c_str(), cursor[1].median / cursor[0].median,
          cursor[2].median / cursor[0].median,
          static_cast<unsigned long long>(m[2].cursor_scanned),
          static_cast<unsigned long long>(m[2].cursor_refined),
          static_cast<unsigned long long>(m[2].cursor_pruned),
          rate(m[2].cursor_pruned, m[2].cursor_scanned));
    } else {
      std::fprintf(json, "\n");
    }
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("Wrote BENCH_quant.json\n");
  }
  return identical ? 0 : 1;
}

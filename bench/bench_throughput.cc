// Extension (beyond the paper): concurrent query throughput. Serves a
// mixed batch of box / distance-range / k-NN queries against ONE shared
// hybrid tree from N std::threads, each with its own SearchScratch, and
// reports QPS and latency percentiles as the thread count sweeps 1 -> 16.
//
// The paper's cost model is single-threaded disk accesses; this bench
// answers the systems question the paper leaves open: does the index
// scale when many clients query it at once? Speedup is hardware-bound
// (a 1-core host shows ~1x regardless of thread count); correctness is
// not: every thread count must reproduce the 1-thread results exactly,
// or the bench exits 1.
//
// Extra env overrides (on top of bench_common.h):
//   HT_BENCH_THREADS_MAX  highest thread count in the sweep (default 16)

#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/timing.h"
#include "core/bulk_load.h"
#include "exec/latency.h"

using namespace ht;
using namespace ht::bench;

namespace {

/// One query of the mixed batch.
struct Job {
  enum class Kind : uint8_t { kBox, kRange, kKnn };
  Kind kind = Kind::kBox;
  Box box;
  std::vector<float> center;
};

/// Answers of one query (ids for box/range, neighbors for k-NN).
struct Answer {
  std::vector<uint64_t> ids;
  std::vector<std::pair<double, uint64_t>> neighbors;
  bool operator==(const Answer&) const = default;
};

/// Outcome of one pass over the batch.
struct Pass {
  std::vector<Answer> answers;
  double wall_seconds = 0.0;
  LatencySummary latency;
  IoStats io;
};

/// Runs every job once, spread over `threads` threads that claim jobs from
/// one atomic cursor. Each thread keeps its own scratch, latency samples
/// and I/O counters, merged after the join.
Pass RunPass(const HybridTree& tree, const std::vector<Job>& jobs,
             const DistanceMetric& metric, double radius, size_t k,
             size_t threads) {
  Pass pass;
  pass.answers.resize(jobs.size());
  std::vector<std::vector<double>> latencies(threads);
  std::vector<IoStats> io(threads);
  // Relaxed: fetch_add alone hands out each index exactly once; the job
  // array is immutable during the pass.
  std::atomic<size_t> next{0};
  WallTimer wall;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      IoStatsScope scope(&io[t]);
      SearchScratch scratch;
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.size()) return;
        const Job& job = jobs[i];
        Answer& out = pass.answers[i];
        WallTimer timer;
        switch (job.kind) {
          case Job::Kind::kBox:
            HT_CHECK_OK(tree.SearchBoxInto(job.box, &scratch, &out.ids));
            break;
          case Job::Kind::kRange:
            HT_CHECK_OK(tree.SearchRangeInto(job.center, radius, metric,
                                             &scratch, &out.ids));
            break;
          case Job::Kind::kKnn:
            HT_CHECK_OK(tree.SearchKnnInto(job.center, k, metric, &scratch,
                                           &out.neighbors));
            break;
        }
        latencies[t].push_back(timer.Seconds());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  pass.wall_seconds = wall.Seconds();
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  pass.latency = SummarizeLatencies(std::move(all));
  for (const IoStats& s : io) pass.io.Accumulate(s);
  return pass;
}

}  // namespace

int main() {
  const size_t n = EnvSize("HT_BENCH_N", 20000);
  // At least one query of each of the three types.
  const size_t n_queries =
      std::max<size_t>(3, EnvSize("HT_BENCH_QUERIES", 600));
  const size_t max_threads = EnvSize("HT_BENCH_THREADS_MAX", 16);
  const size_t k = 10;
  PrintHeader(
      "Extension: concurrent query throughput (shared-read tree)",
      "beyond the paper: shared-read service of the paper's FOURIER "
      "workload (sec 4, 0.07% selectivity)",
      "FOURIER 16-d, n=" + std::to_string(n) + ", batch=" +
          std::to_string(3 * (n_queries / 3)) + " mixed box/range/knn, k=" +
          std::to_string(k) + ", L2 metric, hw threads=" +
          std::to_string(std::thread::hardware_concurrency()));

  Rng rng(4242);
  Dataset data = GenFourier(n, 16, rng);
  MemPagedFile file;
  HybridTreeOptions opts;
  opts.dim = 16;
  auto tree = BulkLoad(opts, &file, data).ValueOrDie();
  // Make the tree durable before serving; the flush write-back is batched
  // (one WriteBatch round trip for the whole buffer pool, see DESIGN.md
  // §6d).
  HT_CHECK(tree->Flush().ok());
  const IoStats build_io = file.stats();
  std::printf("Build + flush wrote %llu pages in %llu batched write trips.\n",
              static_cast<unsigned long long>(build_io.writes),
              static_cast<unsigned long long>(build_io.batch_writes));

  // Mixed workload: one third each of box, distance-range and k-NN, all at
  // the paper's FOURIER operating point.
  L2Metric l2;
  BoxWorkload boxes =
      MakeBoxWorkload(data, kFourierSelectivity, n_queries / 3, rng);
  auto centers = MakeQueryCenters(data, 2 * (n_queries / 3), rng);
  const double radius =
      CalibrateRangeRadius(data, l2, kFourierSelectivity, 20, rng);
  std::vector<Job> jobs;
  for (const Box& b : boxes.queries) {
    jobs.push_back(Job{Job::Kind::kBox, b, {}});
  }
  for (size_t i = 0; i < n_queries / 3; ++i) {
    jobs.push_back(Job{Job::Kind::kRange, Box(), centers[i]});
    jobs.push_back(Job{Job::Kind::kKnn, Box(), centers[n_queries / 3 + i]});
  }

  // Shared reads for the whole sweep: the tree is never mutated while the
  // threads run.
  std::printf("\nThroughput vs threads (batch of %zu queries):\n",
              jobs.size());
  TablePrinter table({"threads", "wall (s)", "QPS", "speedup", "p50 (us)",
                      "p95 (us)", "p99 (us)", "pages/query", "writes",
                      "hit rate"});
  double qps_1 = 0.0;
  std::vector<Answer> reference;
  bool all_match = true;
  for (size_t threads = 1; threads <= max_threads; threads *= 2) {
    tree->pool().ResetStats();
    Pass pass = RunPass(*tree, jobs, l2, radius, k, threads);
    const double qps = static_cast<double>(jobs.size()) / pass.wall_seconds;
    if (threads == 1) {
      qps_1 = qps;
      reference = std::move(pass.answers);
    } else if (pass.answers != reference) {
      all_match = false;
    }
    const IoStats pool_io = tree->pool().stats();
    table.AddRow(
        {std::to_string(threads), TablePrinter::Num(pass.wall_seconds, 3),
         TablePrinter::Num(qps, 0), TablePrinter::Num(qps / qps_1, 2),
         TablePrinter::Num(pass.latency.p50 * 1e6, 0),
         TablePrinter::Num(pass.latency.p95 * 1e6, 0),
         TablePrinter::Num(pass.latency.p99 * 1e6, 0),
         TablePrinter::Num(static_cast<double>(pass.io.PagesVisited()) /
                               static_cast<double>(jobs.size()),
                           1),
         std::to_string(pool_io.writes),
         TablePrinter::Num(pool_io.HitRate(), 3)});
  }
  table.Print();
  std::printf("Cross-check vs 1 thread: results %s\n",
              all_match ? "byte-identical at every thread count"
                        : "MISMATCH (BUG)");
  std::printf(
      "Expected shape: QPS scales with threads up to the hardware core "
      "count (flat on a single-core host); pages/query (pages fetched plus "
      "data pages ruled out from their sidecars) is identical at every "
      "thread count because page accounting is exact under concurrency; "
      "writes stays 0 — the shared-read protocol never dirties a page.\n");
  return all_match ? 0 : 1;
}

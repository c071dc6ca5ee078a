// Copyright 2026 The HybridTree Authors.

#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "core/search_scratch.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/workload.h"
#include "exec/thread_pool.h"
#include "geometry/box.h"
#include "geometry/metrics.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"

namespace perfbench {
namespace {

using ht::AccessClass;
using ht::Box;
using ht::Dataset;
using ht::DistanceMetric;
using ht::HybridTree;
using ht::IoStats;
using ht::IoStatsScope;
using Neighbors = std::vector<std::pair<double, uint64_t>>;

// ---------------------------------------------------------------------------
// Fixed parameters (README.md explains each choice).

constexpr size_t kK = 10;
/// Paper selectivities (§4): 0.07% on FOURIER, 0.2% on COLHIST.
constexpr double kFourierSelectivity = 0.0007;
constexpr double kColhistSelectivity = 0.002;
/// The datasets are fixed, like the paper's FOURIER and COLHIST files:
/// they, and the box side and range radius calibrated on them, come from
/// this constant seed. The workload seed draws the queries (and, on
/// ingest, the order of the inserted rows).
constexpr uint64_t kDatasetSeed = 19990323;
/// Calibration of the box side and range radius on the fixed datasets:
/// probe centres (drawn like query centres) against every
/// kCalibrationStride-th row. Many probes matter: per-centre selectivity
/// is heavy-tailed on COLHIST.
constexpr size_t kCalibrationProbes = 1000;
constexpr size_t kCalibrationStride = 5;
/// Set-ups per run, each followed by its timed segment; setup_s and
/// peak_rss_mb are medians over them.
constexpr int kSegments = 3;
/// Bytes of one user row (dim floats plus the 8-byte id), the unit of
/// space_amp and file.write_amp.
size_t RowBytes(uint32_t dim) { return dim * sizeof(float) + sizeof(uint64_t); }

constexpr size_t kServeN = 100000;
constexpr size_t kServeQueries = 1000;
constexpr size_t kServeShards = 4;
constexpr size_t kServeWorkers = 4;
constexpr size_t kServeClients = 4;
constexpr size_t kServeRecallSample = 100;

constexpr size_t kTreeN = 100000;
constexpr size_t kTreeQueries = 1000;
constexpr size_t kTreeLeafBudget = 16;
constexpr size_t kTreeRecallSample = 500;
constexpr size_t kTreeExactSample = 50;

constexpr size_t kIngestN = 100000;
constexpr size_t kIngestQueries = 1024;
constexpr size_t kIngestBatch = 1024;
constexpr size_t kIngestQueriesPerCycle = 64;
/// Each ingest set-up runs a fixed number of cycles, so that a faster
/// program grows the same file and answers the same queries, only sooner.
/// --seconds sets the number at this rate, which is what a 4-core 2.1 GHz
/// Xeon runs (~0.23 s per cycle).
constexpr double kIngestCyclesPerSecond = 4.0;
constexpr size_t kIngestCheckSample = 20;

enum Kind : size_t { kKnn = 0, kBox = 1, kRange = 2 };
constexpr std::array<const char*, 3> kKindName = {"knn", "box", "range"};
constexpr std::array<SpanName, 3> kShardSpan = {
    SpanName::kShardKnn, SpanName::kShardBox, SpanName::kShardRange};
constexpr std::array<SpanName, 3> kCoreSpan = {
    SpanName::kCoreKnn, SpanName::kCoreBox, SpanName::kCoreRange};

// ---------------------------------------------------------------------------
// Metric tables: every run reports exactly these names, in this order.

const std::vector<std::pair<std::string, std::string>>& EndToEndTable() {
  static const std::vector<std::pair<std::string, std::string>> t = {
      {"setup_s", "s"},          {"qps", "queries/s"},
      {"knn_p50_us", "us"},      {"box_p50_us", "us"},
      {"knn_recall", "fraction"}, {"space_amp", "ratio"},
      {"peak_rss_mb", "MiB"},
  };
  return t;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerTable() {
  static const std::vector<std::pair<std::string, std::string>> t = {
      {"serve.self_us_p50", "us"},
      {"serve.refused", "count"},
      {"shard.knn_us_p50", "us"},
      {"shard.box_us_p50", "us"},
      {"shard.range_us_p50", "us"},
      {"shard.scatter_us_p50", "us"},
      {"shard.leaf_visits_per_knn", "pages/op"},
      {"core.knn_us_p50", "us"},
      {"core.box_us_p50", "us"},
      {"core.range_us_p50", "us"},
      {"core.logical_reads_per_knn", "pages/op"},
      {"core.logical_reads_per_box", "pages/op"},
      {"core.logical_reads_per_range", "pages/op"},
      {"core.leaf_visits_per_knn", "pages/op"},
      {"core.index_reads_per_knn", "pages/op"},
      {"core.insert_us_per_point", "us"},
      {"core.flush_self_us_p50", "us"},
      {"core.pages", "pages"},
      {"pool.query_hit_rate", "fraction"},
      {"pool.ingest_hit_rate", "fraction"},
      {"pool.physical_reads_per_op", "pages/op"},
      {"pool.evictions_per_op", "pages/op"},
      {"pool.pin_overflows", "count"},
      {"quant.prune_rate", "fraction"},
      {"quant.refined_per_knn", "points/op"},
      {"quant.cached_pages", "pages"},
      {"geometry.exact_distances_per_query", "points/op"},
      {"file.read_calls", "calls/op"},
      {"file.pages_read", "pages/op"},
      {"file.read_us", "us/op"},
      {"file.write_calls", "calls/op"},
      {"file.pages_written", "pages/op"},
      {"file.write_us", "us/op"},
      {"file.write_amp", "ratio"},
      {"file.sync_calls", "calls/op"},
      {"file.sync_us", "us/op"},
      {"file.time_frac", "fraction"},
      {"trace.overhead_frac", "fraction"},
  };
  return t;
}

/// Collects metric values by name and emits them in table order. A
/// per-layer metric a workload does not exercise reads 0; an end-to-end
/// metric must always be set.
class MetricSet {
 public:
  void Set(const std::string& name, double value, uint64_t samples) {
    values_[name] = {value, samples};
  }
  std::vector<Metric> Emit(
      const std::vector<std::pair<std::string, std::string>>& table,
      bool require_all) const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : table) {
      auto it = values_.find(name);
      HT_CHECK(it != values_.end() || !require_all);
      Metric m;
      m.name = name;
      m.unit = unit;
      if (it != values_.end()) {
        m.value = it->second.first;
        m.samples = it->second.second;
      }
      out.push_back(m);
    }
    return out;
  }

 private:
  std::map<std::string, std::pair<double, uint64_t>> values_;
};

// ---------------------------------------------------------------------------
// Inputs.

struct QuerySpec {
  Kind kind = kKnn;
  std::vector<float> center;
  Box box;
  double radius = 0.0;
};

/// The `q`-quantile of dist(probe, row) pooled over every probe and every
/// kCalibrationStride-th row: the query size whose mean selectivity over
/// the probes is q. Keeps only the smallest q-share of distances.
double PooledQuantile(
    const Dataset& data, const std::vector<std::vector<float>>& probes,
    double q,
    const std::function<double(std::span<const float>,
                               std::span<const float>)>& dist) {
  const size_t rows = (data.size() + kCalibrationStride - 1) /
                      kCalibrationStride;
  const auto keep = static_cast<size_t>(
      std::ceil(q * static_cast<double>(rows * probes.size())));
  std::vector<double> heap;  // max-heap of the `keep` smallest distances
  heap.reserve(keep + 1);
  for (const auto& c : probes) {
    for (size_t r = 0; r < data.size(); r += kCalibrationStride) {
      const double d = dist(c, data.Row(r));
      if (heap.size() < keep) {
        heap.push_back(d);
        std::push_heap(heap.begin(), heap.end());
      } else if (d < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = d;
        std::push_heap(heap.begin(), heap.end());
      }
    }
  }
  HT_CHECK(!heap.empty());
  return heap.front();
}

/// A row lies in the box of side s around c iff its L-infinity distance to
/// c is at most s / 2.
double LInfDistance(std::span<const float> c, std::span<const float> r) {
  double d = 0.0;
  for (size_t i = 0; i < c.size(); ++i) {
    d = std::max(d, std::abs(static_cast<double>(c[i]) - r[i]));
  }
  return d;
}

struct QuerySet {
  std::vector<QuerySpec> queries;
  double side = 0.0;  // calibrated box side
};

/// `weights` gives the k-NN / box / range counts in each run of
/// weights-sum consecutive queries. Box side and range radius are
/// calibrated to `selectivity` on `data`.
QuerySet MakeQueries(const Dataset& data, size_t n,
                     std::array<size_t, 3> weights, double selectivity,
                     const DistanceMetric& metric, uint64_t seed) {
  QuerySet set;
  ht::Rng calibration_rng(kDatasetSeed);
  const auto probes =
      ht::MakeQueryCenters(data, kCalibrationProbes, calibration_rng);
  const double side =
      2.0 * PooledQuantile(data, probes, selectivity, LInfDistance);
  const double radius =
      weights[kRange] == 0
          ? 0.0
          : PooledQuantile(data, probes, selectivity,
                           [&](std::span<const float> c,
                               std::span<const float> r) {
                             return metric.Distance(c, r);
                           });
  ht::Rng rng(seed);
  auto centers = ht::MakeQueryCenters(data, n, rng);
  const size_t period = weights[0] + weights[1] + weights[2];
  set.side = side;
  std::vector<QuerySpec>& out = set.queries;
  out.resize(centers.size());
  for (size_t i = 0; i < centers.size(); ++i) {
    const size_t slot = i % period;
    QuerySpec& q = out[i];
    q.kind = slot < weights[0]                ? kKnn
             : slot < weights[0] + weights[1] ? kBox
                                              : kRange;
    q.center = centers[i];
    if (q.kind == kBox) q.box = ht::MakeBoxQuery(q.center, side);
    if (q.kind == kRange) q.radius = radius;
  }
  return set;
}

/// One answer in canonical order (ids ascending; k-NN by (distance, id)).
struct Answer {
  std::vector<uint64_t> ids;
  Neighbors neighbors;
  bool operator==(const Answer& o) const {
    return ids == o.ids && neighbors == o.neighbors;
  }
};

void Canonicalize(Answer* a) {
  std::sort(a->ids.begin(), a->ids.end());
  std::sort(a->neighbors.begin(), a->neighbors.end());
}

std::vector<uint64_t> NeighborIds(const Neighbors& n) {
  std::vector<uint64_t> ids;
  for (const auto& [d, id] : n) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Recall@k of `got` against the brute-force `truth`, by id.
double Recall(const Neighbors& got, const Neighbors& truth) {
  if (truth.empty()) return 1.0;
  const auto a = NeighborIds(got);
  const auto b = NeighborIds(truth);
  std::vector<uint64_t> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  return static_cast<double>(both.size()) / static_cast<double>(b.size());
}

/// Brute-force answer over `data`, canonical order.
Answer BruteForce(const Dataset& data, const QuerySpec& q,
                  const DistanceMetric& metric, size_t k) {
  Answer a;
  switch (q.kind) {
    case kKnn: {
      // Copied out: the returned vector keeps the capacity of all rows.
      const Neighbors all = ht::BruteForceKnn(data, q.center, k, metric);
      a.neighbors.assign(all.begin(), all.end());
      break;
    }
    case kBox:
      a.ids = ht::BruteForceBox(data, q.box);
      break;
    case kRange:
      a.ids = ht::BruteForceRange(data, q.center, q.radius, metric);
      break;
  }
  Canonicalize(&a);
  return a;
}

/// Same answer set as brute force: ids for box/range, neighbor ids for
/// k-NN (distances come from different kernels, so they are not compared).
bool SameAsBruteForce(const Answer& got, const Answer& truth) {
  return got.ids == truth.ids &&
         NeighborIds(got.neighbors) == NeighborIds(truth.neighbors);
}

/// One query on one tree: exact or budgeted batch k-NN, box, range.
ht::Status RunOnTree(const HybridTree& tree, const QuerySpec& q,
                     const DistanceMetric& metric,
                     const ht::KnnSearchLimits& limits,
                     ht::SearchScratch* scratch, Answer* out,
                     ht::KnnSearchInfo* info) {
  out->ids.clear();
  out->neighbors.clear();
  switch (q.kind) {
    case kKnn:
      return tree.SearchKnnBoundedInto(q.center, kK, metric, limits, scratch,
                                       &out->neighbors, info);
    case kBox:
      return tree.SearchBoxInto(q.box, scratch, &out->ids);
    case kRange:
      return tree.SearchRangeInto(q.center, q.radius, metric, scratch,
                                  &out->ids);
  }
  return ht::Status::OK();
}

// ---------------------------------------------------------------------------
// Measurement helpers.

/// Starts a new peak-memory interval: resets the kernel's resident-set
/// high-water mark (VmHWM) to the current resident set. False where
/// /proc/self/clear_refs cannot be written; the peak then covers the whole
/// process so far.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Peak resident memory since the last ResetPeakRss, in MiB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  HT_CHECK(f != nullptr);
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  HT_CHECK(kib > 0);
  return static_cast<double>(kib) / 1024.0;
}

double Median(std::vector<double> v) {
  HT_CHECK(!v.empty());
  return ComputePercentile(std::move(v), 0.5).value;
}

double PerOp(double total, uint64_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// How long generating the inputs (and ground truth) took; not timed.
std::string InputsNote(int64_t start_ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "inputs and ground truth: %.1f s",
                static_cast<double>(NowNs() - start_ns) / 1e9);
  return buf;
}

/// End-to-end samples of the timed phase.
struct OpLog {
  std::array<std::vector<double>, 3> us;  // latency per kind, successful ops
  std::vector<TimedSample> samples;       // their end times
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t queries_ok = 0;

  /// Records one successful query.
  void Add(Kind kind, const SpanScope& call) {
    const double us_value = Us(call.duration_ns());
    us[kind].push_back(us_value);
    samples.push_back({call.end_ns(), static_cast<int>(kind)});
    ++queries_ok;
  }

  void Merge(const OpLog& o) {
    for (size_t k = 0; k < 3; ++k) {
      us[k].insert(us[k].end(), o.us[k].begin(), o.us[k].end());
    }
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    attempted += o.attempted;
    failed += o.failed;
    queries_ok += o.queries_ok;
  }
};

/// Per-layer samples of the traced ops (trace mode only).
struct LayerLog {
  std::vector<double> serve_self_us, scatter_us, flush_self_us;
  std::array<std::vector<double>, 3> shard_us, core_us;
  std::array<IoStats, 3> core_io;  // per kind, counted at the core boundary
  std::array<uint64_t, 3> core_ops{};
  uint64_t shard_knn_leaf_visits = 0;
  uint64_t core_knn_leaf_visits = 0;
  IoStats query_io;   // every traced client query
  IoStats ingest_io;  // every traced InsertBatch + Flush
  uint64_t traced_ops = 0;
  int64_t call_ns = 0;  // client calls the file counters are compared with
  // Tracing cost: time per unit of work in traced vs untraced client calls.
  int64_t traced_ns = 0, untraced_ns = 0;
  uint64_t traced_units = 0, untraced_units = 0;
  int64_t insert_ns = 0;
  uint64_t inserted_points = 0;

  void Merge(const LayerLog& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(serve_self_us, o.serve_self_us);
    cat(scatter_us, o.scatter_us);
    cat(flush_self_us, o.flush_self_us);
    for (size_t k = 0; k < 3; ++k) {
      cat(shard_us[k], o.shard_us[k]);
      cat(core_us[k], o.core_us[k]);
      core_io[k].Accumulate(o.core_io[k]);
      core_ops[k] += o.core_ops[k];
    }
    shard_knn_leaf_visits += o.shard_knn_leaf_visits;
    core_knn_leaf_visits += o.core_knn_leaf_visits;
    query_io.Accumulate(o.query_io);
    ingest_io.Accumulate(o.ingest_io);
    traced_ops += o.traced_ops;
    call_ns += o.call_ns;
    traced_ns += o.traced_ns;
    untraced_ns += o.untraced_ns;
    traced_units += o.traced_units;
    untraced_units += o.untraced_units;
    insert_ns += o.insert_ns;
    inserted_points += o.inserted_points;
  }

  void CountCall(bool traced, int64_t ns, uint64_t units) {
    if (traced) {
      traced_ns += ns;
      traced_units += units;
    } else {
      untraced_ns += ns;
      untraced_units += units;
    }
  }

  /// A traced core call of `kind` (tree and ingest: the client call).
  void CoreCall(Kind kind, const SpanScope& call, const IoStats& io,
                const ht::KnnSearchInfo& info) {
    ++traced_ops;
    call_ns += call.duration_ns();
    ++core_ops[kind];
    core_io[kind].Accumulate(io);
    query_io.Accumulate(io);
    core_us[kind].push_back(Us(call.duration_ns()));
    if (kind == kKnn) core_knn_leaf_visits += info.leaf_visits;
  }
};

/// In a traced run, half the client calls are traced: pairs of calls
/// alternate (untraced, untraced, traced, traced, ...), a pattern that
/// does not line up with the query mixes, so every kind gets traced.
bool TracedOp(size_t op) { return (op / 2) % 2 == 1; }

/// Queries per second of a closed loop: the median over the timed phase's
/// 1-second windows, or over the whole phase when it is too short for one.
double WindowedQps(const OpLog& log, const Windows& windows) {
  if (windows.complete() > 0) return windows.MedianRate(log.samples, -1);
  int64_t timed_ns = 0;
  for (const auto& [start, end] : windows.segments) timed_ns += end - start;
  return static_cast<double>(log.queries_ok) /
         (static_cast<double>(timed_ns) / 1e9);
}

/// qps and the p50s (over every timed sample) go in the JSON line. p99s
/// and the range latencies (serve only) go in the report's extra lines.
void SetLatencyMetrics(const OpLog& log, double qps, MetricSet* m,
                       std::vector<Metric>* extra,
                       std::vector<std::string>* notes) {
  m->Set("qps", qps, log.queries_ok);
  for (size_t k = 0; k < 3; ++k) {
    if (log.us[k].empty()) continue;
    const std::string kind = kKindName[k];
    const double p50 = ComputePercentile(log.us[k], 0.5).value;
    if (k == kRange) {
      extra->push_back({kind + "_p50_us", p50, "us", log.us[k].size()});
    } else {
      m->Set(kind + "_p50_us", p50, log.us[k].size());
    }
    const Percentile p99 = ComputePercentile(log.us[k], 0.99);
    if (p99.reportable) {
      extra->push_back({kind + "_p99_us", p99.value, "us", p99.samples});
    } else {
      notes->push_back(kind + "_p99_us not reported: " +
                       std::to_string(p99.samples) + " samples, fewer than " +
                       std::to_string(MinSamplesFor(0.99)));
    }
  }
}

/// Serve and tree set up kSegments times and measure each set-up for an
/// equal share of --seconds, so the memory layout of one build does not
/// decide the result.
int64_t SegmentNs(const RunConfig& cfg) {
  return static_cast<int64_t>(cfg.seconds * 1e9 / kSegments);
}

/// Per-layer metrics shared by all workloads.
void SetLayerMetrics(const LayerLog& L, const FileCounters& file,
                     uint64_t client_ops, MetricSet* m) {
  auto p50 = [](const std::vector<double>& v) {
    return ComputePercentile(v, 0.5).value;
  };
  for (size_t k = 0; k < 3; ++k) {
    const std::string kind = kKindName[k];
    if (!L.shard_us[k].empty()) {
      m->Set("shard." + kind + "_us_p50", p50(L.shard_us[k]),
             L.shard_us[k].size());
    }
    m->Set("core." + kind + "_us_p50", p50(L.core_us[k]), L.core_us[k].size());
    m->Set("core.logical_reads_per_" + kind,
           PerOp(static_cast<double>(L.core_io[k].logical_reads),
                 L.core_ops[k]),
           L.core_ops[k]);
  }
  const uint64_t knn_ops = L.core_ops[kKnn];
  const double knn_reads =
      PerOp(static_cast<double>(L.core_io[kKnn].logical_reads), knn_ops);
  const double knn_leaves =
      PerOp(static_cast<double>(L.core_knn_leaf_visits), knn_ops);
  m->Set("core.leaf_visits_per_knn", knn_leaves, knn_ops);
  m->Set("core.index_reads_per_knn", knn_reads - knn_leaves, knn_ops);

  IoStats all_core;
  uint64_t all_core_ops = 0;
  for (size_t k = 0; k < 3; ++k) {
    all_core.Accumulate(L.core_io[k]);
    all_core_ops += L.core_ops[k];
  }
  m->Set("quant.refined_per_knn",
         PerOp(static_cast<double>(L.core_io[kKnn].quant_refined), knn_ops),
         knn_ops);
  m->Set("geometry.exact_distances_per_query",
         PerOp(static_cast<double>(all_core.scan_points -
                                   all_core.quant_pruned),
               all_core_ops),
         all_core_ops);

  IoStats client;
  client.Accumulate(L.query_io);
  client.Accumulate(L.ingest_io);
  m->Set("pool.query_hit_rate", L.query_io.ClassHitRate(AccessClass::kQuery),
         L.traced_ops);
  m->Set("pool.physical_reads_per_op",
         PerOp(static_cast<double>(client.physical_reads), L.traced_ops),
         L.traced_ops);
  m->Set("pool.evictions_per_op",
         PerOp(static_cast<double>(client.evictions), L.traced_ops),
         L.traced_ops);
  m->Set("pool.pin_overflows", static_cast<double>(client.pin_overflows),
         L.traced_ops);
  m->Set("quant.prune_rate", L.query_io.QuantPruneRate(), L.traced_ops);

  // File counters cover the traced phase of every file the workload
  // opened; they are normalised by the client operations of that phase.
  const auto per = [&](double v) { return PerOp(v, client_ops); };
  m->Set("file.read_calls", per(static_cast<double>(file.read_calls)),
         client_ops);
  m->Set("file.pages_read", per(static_cast<double>(file.pages_read)),
         client_ops);
  m->Set("file.read_us", per(static_cast<double>(file.read_ns) / 1e3),
         client_ops);
  m->Set("file.write_calls", per(static_cast<double>(file.write_calls)),
         client_ops);
  m->Set("file.pages_written", per(static_cast<double>(file.pages_written)),
         client_ops);
  m->Set("file.write_us", per(static_cast<double>(file.write_ns) / 1e3),
         client_ops);
  m->Set("file.sync_calls", per(static_cast<double>(file.sync_calls)),
         client_ops);
  m->Set("file.sync_us", per(static_cast<double>(file.sync_ns) / 1e3),
         client_ops);
  const double file_ns =
      static_cast<double>(file.read_ns + file.write_ns + file.sync_ns);
  m->Set("file.time_frac",
         L.call_ns > 0 ? file_ns / static_cast<double>(L.call_ns) : 0.0,
         client_ops);

  // Cost of tracing (tree, ingest): throughput of traced client calls
  // against untraced ones made alongside them. Serve measures it by phase.
  if (L.traced_units > 0 && L.untraced_units > 0 && L.traced_ns > 0) {
    const double traced_per_unit =
        static_cast<double>(L.traced_ns) / static_cast<double>(L.traced_units);
    const double untraced_per_unit = static_cast<double>(L.untraced_ns) /
                                     static_cast<double>(L.untraced_units);
    m->Set("trace.overhead_frac", 1.0 - untraced_per_unit / traced_per_unit,
           L.traced_units + L.untraced_units);
  }
}

// ---------------------------------------------------------------------------
// serve-fourier16-warm

void RunServe(const RunConfig& cfg, Tracer* tracer, WorkloadReport* rep) {
  const int64_t inputs_start = NowNs();
  ht::Rng data_rng(kDatasetSeed);
  const uint32_t dim = 16;
  const Dataset data = ht::GenFourier(kServeN, dim, data_rng);
  const ht::L2Metric l2;
  const QuerySet set = MakeQueries(data, kServeQueries, {7, 2, 1},
                                   kFourierSelectivity, l2, cfg.seed);
  const std::vector<QuerySpec>& specs = set.queries;
  const size_t nq = specs.size();
  ht::HybridTreeOptions opts;
  opts.dim = dim;
  opts.expected_query_side = set.side;

  // Yardstick for the correctness gate: one unsharded tree.
  std::vector<Answer> expected(nq);
  {
    ht::MemPagedFile ref_file(opts.page_size);
    auto ref = ht::BulkLoad(opts, &ref_file, data, ht::BulkLoadOptions{})
                   .ValueOrDie();
    ht::SearchScratch scratch;
    for (size_t i = 0; i < nq; ++i) {
      HT_CHECK_OK(RunOnTree(*ref, specs[i], l2, ht::KnnSearchLimits{},
                            &scratch, &expected[i], nullptr));
      Canonicalize(&expected[i]);
    }
  }
  double recall_sum = 0.0;
  size_t recall_n = 0;
  for (size_t i = 0; i < nq && recall_n < kServeRecallSample; ++i) {
    if (specs[i].kind != kKnn) continue;
    recall_sum += Recall(expected[i].neighbors,
                         BruteForce(data, specs[i], l2, kK).neighbors);
    ++recall_n;
  }

  std::vector<ht::Request> requests(nq);
  for (size_t i = 0; i < nq; ++i) {
    const QuerySpec& q = specs[i];
    requests[i].tenant = "bench";
    requests[i].metric = &l2;
    requests[i].query = q.kind == kKnn  ? ht::Query::MakeKnn(q.center, kK)
                        : q.kind == kBox ? ht::Query::MakeBox(q.box)
                                         : ht::Query::MakeRange(q.center,
                                                                q.radius);
  }
  auto matches = [&](const ht::QueryResult& r, size_t i) {
    return r.status.ok() && r.ids == expected[i].ids &&
           r.neighbors == expected[i].neighbors;
  };
  rep->notes.push_back(InputsNote(inputs_start));

  // One client of a timed phase: a closed loop until `end_ns`. In a traced
  // phase, half the requests are traced and replayed one and two layers
  // down.
  std::atomic<uint64_t> next_request{1};
  auto client = [&](size_t c, ht::Server& server,
                    const ht::ShardedIndex& index, int64_t end_ns,
                    bool traced_phase, OpLog& log, LayerLog& L) {
    ht::SearchScratch scratch;
    Answer out;
    for (size_t op = 0, i = c * nq / kServeClients; NowNs() < end_ns;
         ++op, ++i) {
      const size_t qi = i % nq;
      const QuerySpec& q = specs[qi];
      const bool traced = traced_phase && TracedOp(op);
      const uint64_t rid = next_request.fetch_add(1, std::memory_order_relaxed);
      SpanScope exec(traced ? tracer : nullptr, SpanName::kServeExecute, rid);
      const ht::QueryResult r = server.Execute(requests[qi]);
      exec.End();
      ++log.attempted;
      if (!matches(r, qi)) {
        ++log.failed;
        continue;
      }
      log.Add(q.kind, exec);
      if (!traced_phase) continue;
      // File calls run on the scatter workers, outside any client span,
      // so they are compared with the time of every request.
      L.call_ns += exec.duration_ns();
      if (!traced) continue;
      ++L.traced_ops;

      // Replay one layer down: the same request on the ShardedIndex.
      ht::ExecOptions eo;
      IoStats shard_io;
      ht::KnnExecStats knn_stats;
      eo.request_io = &shard_io;
      eo.knn_stats = &knn_stats;
      SpanScope shard(tracer, kShardSpan[q.kind], rid, exec.id());
      ht::Status st;
      switch (q.kind) {
        case kKnn:
          st = index.SearchKnn(q.center, kK, l2, eo, &out.neighbors);
          break;
        case kBox:
          st = index.SearchBox(q.box, eo, &out.ids);
          break;
        case kRange:
          st = index.SearchRange(q.center, q.radius, l2, eo, &out.ids);
          break;
      }
      shard.End();
      HT_CHECK_OK(st);
      L.query_io.Accumulate(shard_io);
      L.shard_us[q.kind].push_back(Us(shard.duration_ns()));
      L.shard_knn_leaf_visits += knn_stats.leaf_visits;

      // ...and one more: each shard tree with the shard path's engine
      // (k-NN: a limit-k cursor), without the cross-shard bound.
      int64_t core_sum = 0, core_max = 0;
      for (size_t s = 0; s < index.shards(); ++s) {
        const HybridTree& tree = index.shard_tree(s);
        IoStatsScope io_scope(&L.core_io[q.kind]);
        SpanScope core(tracer, kCoreSpan[q.kind], rid, shard.id());
        switch (q.kind) {
          case kKnn: {
            ht::KnnCursorOptions co;
            co.limit = kK;
            auto cursor = tree.OpenKnnCursor(q.center, l2, co);
            for (size_t j = 0; j < kK; ++j) {
              auto next = cursor.Next();
              HT_CHECK_OK(next.status());
              if (!next.ValueOrDie().has_value()) break;
            }
            L.core_knn_leaf_visits += cursor.leaf_visits();
            break;
          }
          case kBox:
            HT_CHECK_OK(tree.SearchBoxInto(q.box, &scratch, &out.ids));
            break;
          case kRange:
            HT_CHECK_OK(tree.SearchRangeInto(q.center, q.radius, l2, &scratch,
                                             &out.ids));
            break;
        }
        core.End();
        core_sum += core.duration_ns();
        core_max = std::max(core_max, core.duration_ns());
      }
      ++L.core_ops[q.kind];
      L.core_us[q.kind].push_back(Us(core_sum));
      L.serve_self_us.push_back(Us(exec.duration_ns() - shard.duration_ns()));
      L.scatter_us.push_back(Us(shard.duration_ns() - core_max));
    }
  };

  // Runs the clients for `duration_ns` into `log` and `L`; returns the
  // phase's [start, end).
  auto phase = [&](ht::Server& server, const ht::ShardedIndex& index,
                   int64_t duration_ns, bool traced_phase, OpLog& log,
                   LayerLog& L) {
    std::vector<OpLog> logs(kServeClients);
    std::vector<LayerLog> layers(kServeClients);
    const int64_t start = NowNs();
    const int64_t end = start + duration_ns;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kServeClients; ++c) {
      clients.emplace_back([&, c] {
        client(c, server, index, end, traced_phase, logs[c], layers[c]);
      });
    }
    for (auto& t : clients) t.join();
    for (size_t c = 0; c < kServeClients; ++c) {
      log.Merge(logs[c]);
      L.Merge(layers[c]);
    }
    return std::make_pair(start, NowNs());
  };

  ht::ThreadPool pool(kServeWorkers);
  bool peak_reset = true;
  std::vector<double> setup_s, peak_mb;
  uint64_t gate_wrong = 0;
  OpLog log;            // the timed phase (traced run: its traced half)
  OpLog untraced_log;   // traced run: the untraced half
  LayerLog L;
  LayerLog no_layers;  // untraced phases record no per-layer data
  Windows windows;
  FileCounters file;
  int64_t traced_ns = 0, untraced_ns = 0;
  uint64_t pages = 0, refused = 0;
  size_t cached_quant = 0, shards = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    peak_reset = ResetPeakRss() && peak_reset;
    std::vector<TracedPagedFile*> files;  // owned by the index
    const int64_t t0 = NowNs();
    ht::ShardedIndexOptions so;
    so.shards = kServeShards;
    so.file_factory = [&](size_t) -> std::unique_ptr<ht::PagedFile> {
      auto f = std::make_unique<TracedPagedFile>(
          std::make_unique<ht::MemPagedFile>(opts.page_size), tracer);
      files.push_back(f.get());
      return f;
    };
    auto index = ht::ShardedIndex::Build(opts, so, data, &pool).ValueOrDie();
    ht::Server server(index.get());
    // Warm-up: every distinct query once through the full server path,
    // from the client threads. Its answers are the gate: each must equal
    // the unsharded tree's.
    std::atomic<uint64_t> wrong{0};
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kServeClients; ++c) {
        threads.emplace_back([&, c] {
          for (size_t i = c; i < nq; i += kServeClients) {
            if (!matches(server.Execute(requests[i]), i)) ++wrong;
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    gate_wrong += wrong.load();

    // Timed segment: closed loop, each client waits for its reply. The
    // traced run spends the first half untraced and the second traced, so
    // that trace.overhead_frac sees the replays' load on every client.
    server.ResetMetrics();
    if (!cfg.trace) {
      windows.segments.push_back(
          phase(server, *index, SegmentNs(cfg), false, log, no_layers));
    } else {
      const auto [u0, u1] = phase(server, *index, SegmentNs(cfg) / 2, false,
                                  untraced_log, no_layers);
      untraced_ns += u1 - u0;
      FileCounters before;
      for (auto* f : files) before.Accumulate(f->counters());
      tracer->set_enabled(true);
      const auto [p0, p1] =
          phase(server, *index, SegmentNs(cfg) / 2, true, log, L);
      tracer->set_enabled(false);
      traced_ns += p1 - p0;
      FileCounters after;
      for (auto* f : files) after.Accumulate(f->counters());
      file.Accumulate(after.Delta(before));
    }
    peak_mb.push_back(PeakRssMb());
    for (const ht::TenantMetrics& t : server.Snapshot().tenants) {
      refused += t.rejected + t.expired + t.cancelled;
    }
    pages = 0;
    for (auto* f : files) pages += f->page_count();
    cached_quant = 0;
    for (size_t s = 0; s < index->shards(); ++s) {
      cached_quant += index->shard_tree(s).CachedQuantPages();
    }
    shards = index->shards();
  }

  RunResult& res = rep->result;
  const uint64_t attempted = log.attempted + untraced_log.attempted;
  const uint64_t failed = log.failed + untraced_log.failed;
  res.correct = gate_wrong == 0 && failed == 0;
  res.attempted = attempted;
  res.failed = failed;
  rep->notes.push_back(
      "gate: " + std::to_string(nq) + " distinct queries x " +
      std::to_string(kSegments) +
      " set-ups through Server::Execute vs an unsharded tree, " +
      std::to_string(gate_wrong) + " wrong");
  if (!peak_reset) {
    rep->notes.push_back("peak_rss_mb covers the whole process: "
                         "/proc/self/clear_refs is not writable");
  }
  MetricSet m;
  if (!cfg.trace) {
    m.Set("setup_s", Median(setup_s), setup_s.size());
    SetLatencyMetrics(log, WindowedQps(log, windows), &m, &rep->extra,
                      &rep->notes);
    m.Set("knn_recall", recall_sum / static_cast<double>(recall_n), recall_n);
    m.Set("space_amp",
          static_cast<double>(pages * opts.page_size) /
              static_cast<double>(kServeN * RowBytes(dim)),
          pages);
    m.Set("peak_rss_mb", Median(peak_mb), peak_mb.size());
    res.metrics = m.Emit(EndToEndTable(), true);
  } else {
    SetLayerMetrics(L, file, log.attempted, &m);
    m.Set("serve.self_us_p50", ComputePercentile(L.serve_self_us, 0.5).value,
          L.serve_self_us.size());
    m.Set("serve.refused", static_cast<double>(refused), attempted);
    m.Set("shard.scatter_us_p50", ComputePercentile(L.scatter_us, 0.5).value,
          L.scatter_us.size());
    m.Set("shard.leaf_visits_per_knn",
          PerOp(static_cast<double>(L.shard_knn_leaf_visits),
                L.core_ops[kKnn]),
          L.core_ops[kKnn]);
    m.Set("core.pages", static_cast<double>(pages), shards);
    m.Set("quant.cached_pages", static_cast<double>(cached_quant), shards);
    // Traced-half qps against untraced-half qps: the replays run on the
    // client threads after each traced request, outside its span.
    const double traced_qps = static_cast<double>(log.queries_ok) /
                              static_cast<double>(traced_ns);
    const double untraced_qps = static_cast<double>(untraced_log.queries_ok) /
                                static_cast<double>(untraced_ns);
    m.Set("trace.overhead_frac", 1.0 - traced_qps / untraced_qps,
          log.queries_ok + untraced_log.queries_ok);
    res.metrics = m.Emit(PerLayerTable(), false);
  }
  rep->extra.push_back({"op_fail_frac",
                        FailFraction(failed + refused,
                                     std::max<uint64_t>(attempted, 1)),
                        "fraction", attempted});
}

// ---------------------------------------------------------------------------
// tree-colhist64-1t

void RunTree(const RunConfig& cfg, Tracer* tracer, WorkloadReport* rep) {
  const int64_t inputs_start = NowNs();
  ht::Rng data_rng(kDatasetSeed);
  const uint32_t dim = 64;
  Dataset data = ht::GenColhist(kTreeN, dim, data_rng);
  data.NormalizeUnitCube();  // as the paper's COLHIST figures do
  const ht::L1Metric l1;
  const QuerySet set = MakeQueries(data, kTreeQueries, {1, 1, 0},
                                   kColhistSelectivity, l1, cfg.seed);
  const std::vector<QuerySpec>& specs = set.queries;
  const size_t nq = specs.size();
  ht::HybridTreeOptions opts;
  opts.dim = dim;
  opts.expected_query_side = set.side;
  ht::KnnSearchLimits budget;
  budget.max_leaf_visits = kTreeLeafBudget;

  // Brute-force ground truth on a sample of each kind (before timing).
  std::array<size_t, 3> want = {kTreeRecallSample, kTreeExactSample, 0};
  std::vector<std::pair<size_t, Answer>> truth;
  for (size_t i = 0; i < nq; ++i) {
    if (want[specs[i].kind] == 0) continue;
    --want[specs[i].kind];
    truth.emplace_back(i, BruteForce(data, specs[i], l1, kK));
  }
  rep->notes.push_back(InputsNote(inputs_start));

  std::vector<Answer> answers(nq), previous;
  std::vector<double> setup_s, peak_mb;
  bool peak_reset = true;
  uint64_t gate_wrong = 0;
  ht::SearchScratch scratch;
  Answer out;
  OpLog log;
  LayerLog L;
  Windows windows;
  FileCounters file_delta;
  size_t pages = 0, cached_quant = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    peak_reset = ResetPeakRss() && peak_reset;
    const int64_t t0 = NowNs();
    auto file = std::make_unique<TracedPagedFile>(
        std::make_unique<ht::MemPagedFile>(opts.page_size), tracer);
    auto tree = ht::BulkLoad(opts, file.get(), data, ht::BulkLoadOptions{})
                    .ValueOrDie();
    for (size_t i = 0; i < nq; ++i) {  // warm-up: every query once
      HT_CHECK_OK(RunOnTree(*tree, specs[i], l1, budget, &scratch, &answers[i],
                            nullptr));
      Canonicalize(&answers[i]);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    // Budgeted k-NN is deterministic: every set-up must answer alike.
    if (!previous.empty() && previous != answers) ++gate_wrong;
    previous = answers;

    // Timed segment: one thread, the tree called directly. In the traced
    // run the tracer is on only during traced calls.
    const FileCounters before = file->counters();
    const int64_t start = NowNs();
    const int64_t end = start + SegmentNs(cfg);
    for (size_t i = 0; NowNs() < end; ++i) {
      const size_t qi = i % nq;
      const QuerySpec& q = specs[qi];
      const bool traced = cfg.trace && TracedOp(i);
      if (cfg.trace) tracer->set_enabled(traced);
      IoStats io;
      ht::KnnSearchInfo info;
      ht::Status st;
      SpanScope call(traced ? tracer : nullptr, kCoreSpan[q.kind], i);
      {
        std::optional<IoStatsScope> scope;
        if (traced) scope.emplace(&io);
        st = RunOnTree(*tree, q, l1, budget, &scratch, &out, &info);
      }
      call.End();
      ++log.attempted;
      Canonicalize(&out);
      if (!st.ok() || !(out == answers[qi])) {
        ++log.failed;
        continue;
      }
      log.Add(q.kind, call);
      if (!cfg.trace) continue;
      L.CountCall(traced, call.duration_ns(), 1);
      if (traced) L.CoreCall(q.kind, call, io, info);
    }
    windows.segments.emplace_back(start, NowNs());
    if (cfg.trace) tracer->set_enabled(false);
    peak_mb.push_back(PeakRssMb());
    file_delta.Accumulate(file->counters().Delta(before));
    pages = file->page_count();
    cached_quant = tree->CachedQuantPages();
  }

  double box_hits = 0.0;
  for (size_t i = 0; i < nq; ++i) {
    if (specs[i].kind == kBox) box_hits += 2.0 * answers[i].ids.size() / nq;
  }
  rep->notes.push_back("box side " + std::to_string(set.side) +
                       ", mean box answer " + std::to_string(box_hits) +
                       " ids");
  double recall_sum = 0.0;
  size_t recall_n = 0;
  for (const auto& [i, t] : truth) {
    if (specs[i].kind == kKnn) {
      recall_sum += Recall(answers[i].neighbors, t.neighbors);
      ++recall_n;
    } else if (!SameAsBruteForce(answers[i], t)) {
      ++gate_wrong;
    }
  }

  RunResult& res = rep->result;
  res.correct = gate_wrong == 0 && log.failed == 0;
  res.attempted = log.attempted;
  res.failed = log.failed;
  rep->notes.push_back(
      "gate: " + std::to_string(truth.size() - recall_n) +
      " sampled box answers vs brute force and budgeted k-NN determinism "
      "across set-ups, " + std::to_string(gate_wrong) + " wrong");
  if (!peak_reset) {
    rep->notes.push_back("peak_rss_mb covers the whole process: "
                         "/proc/self/clear_refs is not writable");
  }
  MetricSet m;
  if (!cfg.trace) {
    m.Set("setup_s", Median(setup_s), setup_s.size());
    SetLatencyMetrics(log, WindowedQps(log, windows), &m, &rep->extra,
                      &rep->notes);
    m.Set("knn_recall", recall_sum / static_cast<double>(recall_n), recall_n);
    m.Set("space_amp",
          static_cast<double>(pages * opts.page_size) /
              static_cast<double>(kTreeN * RowBytes(dim)),
          pages);
    m.Set("peak_rss_mb", Median(peak_mb), peak_mb.size());
    res.metrics = m.Emit(EndToEndTable(), true);
  } else {
    SetLayerMetrics(L, file_delta, L.traced_ops, &m);
    m.Set("core.pages", static_cast<double>(pages), 1);
    m.Set("quant.cached_pages", static_cast<double>(cached_quant), 1);
    res.metrics = m.Emit(PerLayerTable(), false);
  }
  rep->extra.push_back({"op_fail_frac",
                        FailFraction(log.failed,
                                     std::max<uint64_t>(log.attempted, 1)),
                        "fraction", log.attempted});
}

// ---------------------------------------------------------------------------
// ingest-fourier16-disk

struct DurabilityCheck {
  uint64_t wrong = 0;
  double recall_sum = 0.0;
  size_t recall_n = 0;
};

/// Reopens the file at `path` from disk and checks that the rows
/// `rows(id)` for id < `acked` are all there, exactly once, and that
/// sampled answers match brute force over them.
DurabilityCheck CheckDurability(
    const std::string& path, size_t acked,
    const std::function<std::span<const float>(uint64_t)>& rows,
    const std::vector<QuerySpec>& specs, const DistanceMetric& metric) {
  DurabilityCheck check;
  auto disk = ht::DiskPagedFile::Open(path).ValueOrDie();
  auto tree = HybridTree::Open(disk.get(), 0).ValueOrDie();
  if (tree->size() != acked) ++check.wrong;
  std::vector<uint8_t> seen(acked, 0);
  HT_CHECK_OK(tree->ScanAll([&](uint64_t id, std::span<const float> v) {
    if (id >= acked || seen[id] != 0) {
      ++check.wrong;
      return;
    }
    const auto want = rows(id);
    if (!std::equal(v.begin(), v.end(), want.begin(), want.end())) {
      ++check.wrong;
    }
    seen[id] = 1;
  }));
  check.wrong += std::count(seen.begin(), seen.end(), 0);

  Dataset acked_rows(tree->options().dim, acked);
  for (size_t id = 0; id < acked; ++id) {
    const auto row = rows(id);
    std::copy(row.begin(), row.end(), acked_rows.MutableRow(id).begin());
  }
  std::array<size_t, 3> want = {kIngestCheckSample, kIngestCheckSample, 0};
  ht::SearchScratch scratch;
  Answer out;
  for (const QuerySpec& q : specs) {
    if (want[q.kind] == 0) continue;
    --want[q.kind];
    HT_CHECK_OK(RunOnTree(*tree, q, metric, ht::KnnSearchLimits{}, &scratch,
                          &out, nullptr));
    Canonicalize(&out);
    const Answer truth = BruteForce(acked_rows, q, metric, kK);
    if (q.kind == kKnn) {
      check.recall_sum += Recall(out.neighbors, truth.neighbors);
      ++check.recall_n;
    }
    if (!SameAsBruteForce(out, truth)) ++check.wrong;
  }
  return check;
}

/// Insert/query/Flush cycles per ingest set-up (see kIngestCyclesPerSecond).
size_t IngestCycles(const RunConfig& cfg) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(cfg.seconds * kIngestCyclesPerSecond /
                                          kSegments)));
}

void RunIngest(const RunConfig& cfg, Tracer* tracer, WorkloadReport* rep) {
  namespace fs = std::filesystem;
  const int64_t inputs_start = NowNs();
  const uint32_t dim = 16;
  const size_t cycles = IngestCycles(cfg);
  const size_t new_rows = cycles * kIngestBatch;
  // The base rows and the rows each set-up inserts come from one
  // generator call, so they share one normalisation. Row j of `pending`
  // gets id kIngestN + j.
  Dataset base;
  Dataset pending(dim, new_rows);
  {
    ht::Rng data_rng(kDatasetSeed);
    const Dataset all = ht::GenFourier(kIngestN + new_rows, dim, data_rng);
    base = all.Head(kIngestN);
    for (size_t j = 0; j < new_rows; ++j) {
      const auto row = all.Row(kIngestN + j);
      std::copy(row.begin(), row.end(), pending.MutableRow(j).begin());
    }
  }
  const auto row_of = [&](uint64_t id) {
    return id < kIngestN ? base.Row(id) : pending.Row(id - kIngestN);
  };
  const ht::L2Metric l2;
  const QuerySet set = MakeQueries(base, kIngestQueries, {1, 1, 0},
                                   kFourierSelectivity, l2, cfg.seed);
  const std::vector<QuerySpec>& specs = set.queries;
  const size_t nq = specs.size();
  ht::HybridTreeOptions opts;
  opts.dim = dim;
  opts.expected_query_side = set.side;
  const ht::KnnSearchLimits exact;
  // Each set-up inserts the same rows in its own order, drawn from the
  // seed, so one run covers several tree layouts.
  ht::Rng order_rng(cfg.seed);
  std::vector<std::vector<size_t>> orders(kSegments);
  for (auto& order : orders) {
    order.resize(new_rows);
    for (size_t j = 0; j < new_rows; ++j) order[j] = j;
    for (size_t j = new_rows - 1; j > 0; --j) {
      std::swap(order[j], order[order_rng.NextU64() % (j + 1)]);
    }
  }
  rep->notes.push_back(InputsNote(inputs_start));

  const fs::path dir = fs::path(cfg.tmp_dir) /
                       ("ingest-" + std::to_string(::getpid()) + "-" +
                        std::to_string(cfg.seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "tree.ht").string();

  std::vector<double> setup_s, peak_mb, qps, flush_ms, space_amp;
  bool peak_reset = true;
  ht::SearchScratch scratch;
  Answer out;
  OpLog log;
  LayerLog L;
  FileCounters file_delta;
  DurabilityCheck gate;
  int64_t insert_ns = 0;
  size_t inserted_total = 0;
  size_t last_pages = 0, last_cached_quant = 0;
  bool insert_failed = false;
  std::vector<uint64_t> ids(kIngestBatch);
  std::vector<float> batch(kIngestBatch * dim);
  for (int seg = 0; seg < kSegments && !insert_failed; ++seg) {
    // Set-up: bulk load onto disk, flush, reopen with a small pool, warm.
    peak_reset = ResetPeakRss() && peak_reset;
    const int64_t t0 = NowNs();
    auto file = std::make_unique<TracedPagedFile>(
        ht::DiskPagedFile::Create(path, opts.page_size).ValueOrDie(), tracer);
    auto tree = ht::BulkLoad(opts, file.get(), base, ht::BulkLoadOptions{})
                    .ValueOrDie();
    HT_CHECK_OK(tree->Flush());
    tree.reset();
    file = std::make_unique<TracedPagedFile>(
        ht::DiskPagedFile::Open(path).ValueOrDie(), tracer);
    const size_t pool_pages = std::max<size_t>(1, file->page_count() / 10);
    tree = HybridTree::Open(file.get(), pool_pages).ValueOrDie();
    HT_CHECK(tree->size() == kIngestN);
    for (size_t i = 0; i < kIngestQueriesPerCycle; ++i) {  // warm-up
      HT_CHECK_OK(RunOnTree(*tree, specs[i % nq], l2, exact, &scratch, &out,
                            nullptr));
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    const size_t start_pages = file->page_count();

    // Timed segment: a fixed number of cycles of InsertBatch, 64 queries,
    // Flush. In the traced run whole cycles alternate between traced and
    // not.
    const FileCounters before = file->counters();
    const uint64_t queries_before = log.queries_ok;
    const int64_t start = NowNs();
    size_t inserted = 0;
    for (size_t cycle = 0; cycle < cycles; ++cycle) {
      const bool traced = cfg.trace && cycle % 2 == 1;
      if (cfg.trace) tracer->set_enabled(traced);
      Tracer* t = traced ? tracer : nullptr;

      for (size_t j = 0; j < kIngestBatch; ++j) {
        const size_t row = orders[seg][cycle * kIngestBatch + j];
        ids[j] = kIngestN + row;
        std::copy_n(pending.Row(row).begin(), dim, batch.begin() + j * dim);
      }
      IoStats ingest_io;
      SpanScope ins(t, SpanName::kCoreInsertBatch, cycle);
      ht::Status st;
      {
        std::optional<IoStatsScope> scope;
        if (traced) scope.emplace(&ingest_io);
        st = tree->InsertBatch(batch, ids);
      }
      ins.End();
      ++log.attempted;
      if (!st.ok()) {
        ++log.failed;
        insert_failed = true;  // the acknowledged rows are no longer known
        break;
      }
      inserted += kIngestBatch;
      insert_ns += ins.duration_ns();
      if (cfg.trace) L.CountCall(traced, ins.duration_ns(), kIngestBatch);

      for (size_t j = 0; j < kIngestQueriesPerCycle; ++j) {
        const QuerySpec& q = specs[(cycle * kIngestQueriesPerCycle + j) % nq];
        IoStats io;
        ht::KnnSearchInfo info;
        SpanScope call(t, kCoreSpan[q.kind], cycle);
        {
          std::optional<IoStatsScope> scope;
          if (traced) scope.emplace(&io);
          st = RunOnTree(*tree, q, l2, exact, &scratch, &out, &info);
        }
        call.End();
        ++log.attempted;
        if (!st.ok()) {
          ++log.failed;
          continue;
        }
        log.Add(q.kind, call);
        if (traced) L.CoreCall(q.kind, call, io, info);
      }

      SpanScope flush(t, SpanName::kCoreFlush, cycle);
      {
        std::optional<IoStatsScope> scope;
        if (traced) scope.emplace(&ingest_io);
        st = tree->Flush();
      }
      flush.End();
      ++log.attempted;
      if (!st.ok()) {
        ++log.failed;
        continue;
      }
      flush_ms.push_back(static_cast<double>(flush.duration_ns()) / 1e6);
      if (!traced) continue;
      L.traced_ops += 2;  // the InsertBatch and the Flush
      L.call_ns += ins.duration_ns() + flush.duration_ns();
      L.ingest_io.Accumulate(ingest_io);
      L.flush_self_us.push_back(Us(flush.self_ns()));
      L.insert_ns += ins.duration_ns();
      L.inserted_points += kIngestBatch;
    }
    const int64_t timed_ns = NowNs() - start;
    if (cfg.trace) tracer->set_enabled(false);
    peak_mb.push_back(PeakRssMb());
    qps.push_back(static_cast<double>(log.queries_ok - queries_before) /
                  (static_cast<double>(timed_ns) / 1e9));
    file_delta.Accumulate(file->counters().Delta(before));
    inserted_total += inserted;
    last_pages = file->page_count();
    last_cached_quant = tree->CachedQuantPages();
    const size_t acked = kIngestN + inserted;
    space_amp.push_back(static_cast<double>(fs::file_size(path)) /
                        static_cast<double>(acked * RowBytes(dim)));

    // Durability gate: reopen the file from disk after the last Flush,
    // while the writer is still open, so that nothing its teardown writes
    // can hide a row or page the Flush left out.
    if (!insert_failed) {
      const DurabilityCheck c = CheckDurability(path, acked, row_of, specs, l2);
      gate.wrong += c.wrong;
      gate.recall_sum += c.recall_sum;
      gate.recall_n += c.recall_n;
      rep->notes.push_back(
          "set-up " + std::to_string(seg) + ": " + std::to_string(cycles) +
          " cycles, pool " + std::to_string(pool_pages) + " pages, file " +
          std::to_string(start_pages) + " -> " + std::to_string(last_pages) +
          " pages, " + std::to_string(last_cached_quant) +
          " sidecars; reopened " + std::to_string(acked) + " rows and " +
          std::to_string(c.recall_n * 2) + " sampled answers, " +
          std::to_string(c.wrong) + " wrong");
    }
    tree.reset();
    file.reset();
    fs::remove(path);
  }
  fs::remove_all(dir);

  RunResult& res = rep->result;
  res.correct = gate.wrong == 0 && log.failed == 0 && !insert_failed;
  res.attempted = log.attempted;
  res.failed = log.failed;
  if (insert_failed) {
    rep->notes.push_back("an InsertBatch failed; the run stopped there");
  }
  if (!peak_reset) {
    rep->notes.push_back("peak_rss_mb covers the whole process: "
                         "/proc/self/clear_refs is not writable");
  }
  MetricSet m;
  if (!cfg.trace) {
    m.Set("setup_s", Median(setup_s), setup_s.size());
    SetLatencyMetrics(log, Median(qps), &m, &rep->extra, &rep->notes);
    m.Set("knn_recall",
          gate.recall_n == 0
              ? 0.0
              : gate.recall_sum / static_cast<double>(gate.recall_n),
          gate.recall_n);
    m.Set("space_amp", Median(space_amp), space_amp.size());
    m.Set("peak_rss_mb", Median(peak_mb), peak_mb.size());
    res.metrics = m.Emit(EndToEndTable(), true);
  } else {
    SetLayerMetrics(L, file_delta, L.traced_ops, &m);
    m.Set("core.pages", static_cast<double>(last_pages), 1);
    m.Set("quant.cached_pages", static_cast<double>(last_cached_quant), 1);
    m.Set("core.insert_us_per_point",
          PerOp(Us(L.insert_ns), L.inserted_points), L.inserted_points);
    m.Set("core.flush_self_us_p50",
          ComputePercentile(L.flush_self_us, 0.5).value,
          L.flush_self_us.size());
    m.Set("pool.ingest_hit_rate",
          L.ingest_io.ClassHitRate(AccessClass::kIngest), L.traced_ops);
    m.Set("file.write_amp",
          PerOp(static_cast<double>(file_delta.pages_written * opts.page_size),
                L.inserted_points * RowBytes(dim)),
          L.inserted_points);
    res.metrics = m.Emit(PerLayerTable(), false);
  }
  rep->extra.push_back(
      {"ingest_pts_per_s",
       insert_ns > 0 ? static_cast<double>(inserted_total) /
                           (static_cast<double>(insert_ns) / 1e9)
                     : 0.0,
       "points/s", inserted_total});
  rep->extra.push_back({"flush_p50_ms",
                        ComputePercentile(flush_ms, 0.5).value, "ms",
                        flush_ms.size()});
  rep->extra.push_back({"op_fail_frac",
                        FailFraction(log.failed,
                                     std::max<uint64_t>(log.attempted, 1)),
                        "fraction", log.attempted});
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "serve-fourier16-warm", "tree-colhist64-1t", "ingest-fourier16-disk"};
  return names;
}

bool RunWorkload(const RunConfig& config, Tracer* tracer,
                 WorkloadReport* report) {
  if (config.workload == "serve-fourier16-warm") {
    RunServe(config, tracer, report);
  } else if (config.workload == "tree-colhist64-1t") {
    RunTree(config, tracer, report);
  } else if (config.workload == "ingest-fourier16-disk") {
    RunIngest(config, tracer, report);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench

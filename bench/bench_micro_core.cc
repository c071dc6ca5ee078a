// Micro-benchmarks of core primitives: distance metrics, box operations,
// the sidecar test, the bounded page scan, node (de)serialization,
// buffer-pool access, and end-to-end hybrid-tree insert/search throughput
// at 64-d.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "common/timing.h"
#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"
#include "geometry/metrics.h"
#include "storage/quant_store.h"

namespace ht {
namespace {

std::vector<float> RandomVec(uint32_t dim, Rng& rng) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.NextDouble());
  return v;
}

void BM_MetricDistance(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  Rng rng(8200 + dim);
  auto a = RandomVec(dim, rng);
  auto b = RandomVec(dim, rng);
  std::unique_ptr<DistanceMetric> metric;
  switch (state.range(1)) {
    case 0: metric = std::make_unique<L1Metric>(); break;
    case 1: metric = std::make_unique<L2Metric>(); break;
    default: metric = std::make_unique<LpMetric>(3.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric->Distance(a, b));
  }
  state.SetLabel(metric->Name());
}
BENCHMARK(BM_MetricDistance)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({16, 1});

void BM_MinDistToBox(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  Rng rng(8300 + dim);
  auto q = RandomVec(dim, rng);
  std::vector<float> lo(dim), hi(dim);
  for (uint32_t d = 0; d < dim; ++d) {
    auto a = static_cast<float>(rng.NextDouble());
    auto b = static_cast<float>(rng.NextDouble());
    lo[d] = std::min(a, b);
    hi[d] = std::max(a, b);
  }
  Box box = Box::FromBounds(lo, hi);
  L1Metric l1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(l1.MinDistToBox(q, box));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MinDistToBox)->Arg(16)->Arg(64);

// Batch MINDIST over one index node's children: 202 boxes (the measured
// fanout of the COLHIST 64-d and FOURIER 16-d trees) stored dimension-major,
// scored by one MinDistToBoxes call at the active SIMD tier. Items are
// boxes, so items_per_second compares directly with BM_MinDistToBox.
void BM_MinDistToBoxes(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  constexpr size_t kBoxes = 202;
  const size_t stride = (kBoxes + kernels::kBoxLanes - 1) /
                        kernels::kBoxLanes * kernels::kBoxLanes;
  Rng rng(8350 + dim);
  auto q = RandomVec(dim, rng);
  std::vector<float> lo(dim * stride, 0.0f), hi(dim * stride, 0.0f);
  for (size_t i = 0; i < kBoxes; ++i) {
    for (uint32_t d = 0; d < dim; ++d) {
      auto a = static_cast<float>(rng.NextDouble());
      auto b = static_cast<float>(rng.NextDouble());
      lo[d * stride + i] = std::min(a, b);
      hi[d * stride + i] = std::max(a, b);
    }
  }
  const BoxSetView boxes{lo.data(), hi.data(), dim, stride, kBoxes};
  std::vector<double> out(stride);
  L1Metric l1;
  if (state.range(1) == 0) {
    for (auto _ : state) {
      l1.MinDistToBoxes(q, boxes, out.data());
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel(kernels::TierName(kernels::ActiveTier()));
  } else {
    // The same 202 boxes as separate Box objects, one MinDistToBox call
    // each: the per-child loop the batch call replaces.
    std::vector<Box> each(kBoxes);
    for (size_t i = 0; i < kBoxes; ++i) boxes.Gather(i, &each[i]);
    for (auto _ : state) {
      for (size_t i = 0; i < kBoxes; ++i) out[i] = l1.MinDistToBox(q, each[i]);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
    state.SetLabel("per-box MinDistToBox");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBoxes));
}
// Args: {dimensionality, 0 = one batch call | 1 = per-box loop}.
BENCHMARK(BM_MinDistToBoxes)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// The sidecar test a best-first k-NN makes before it pins a data page:
// one CodeFilterMasks call on the page's 8-bit sidecar at the running
// bound. The rows (100k: FOURIER at 16-d, COLHIST at 64-d) are split into
// kd leaves of at most one 4 KiB data page's row count by median cuts on
// the widest dimension, and the leaves' sidecars are built in shuffled
// order, so leaves near in space are not near in memory. Each query (64
// data points) tests, in shuffled order, every leaf whose grid MINDIST is
// within its true 10-NN distance, at that distance. Reports ns per test
// (thread CPU time), the survivors of one pass over all queries (the same
// at every tier), and the active SIMD tier as the label (HT_SIMD picks
// another). Args: {dim, metric: 0 = L2, 1 = L1}.
struct SidecarTests {
  std::vector<std::vector<float>> queries;
  std::vector<std::unique_ptr<const QuantizedPage>> pages;
  struct Test {
    size_t query;
    const QuantizedPage* page;
    double bound;
  };
  std::vector<Test> tests;
  size_t max_blocks = 0;
};

/// Median-splits order[begin, end) on its widest dimension until each leaf
/// holds at most `leaf_rows` rows; appends the leaves' ranges.
void SplitKdLeaves(const Dataset& data, std::vector<uint32_t>* order,
                   size_t begin, size_t end, size_t leaf_rows,
                   std::vector<std::pair<size_t, size_t>>* leaves) {
  if (end - begin <= leaf_rows) {
    leaves->emplace_back(begin, end);
    return;
  }
  uint32_t widest = 0;
  float best = -1.0f;
  for (uint32_t d = 0; d < data.dim(); ++d) {
    float lo = data.Row((*order)[begin])[d];
    float hi = lo;
    for (size_t i = begin; i < end; ++i) {
      lo = std::min(lo, data.Row((*order)[i])[d]);
      hi = std::max(hi, data.Row((*order)[i])[d]);
    }
    if (hi - lo > best) {
      best = hi - lo;
      widest = d;
    }
  }
  const size_t mid = begin + (end - begin) / 2;
  std::nth_element(order->begin() + static_cast<ptrdiff_t>(begin),
                   order->begin() + static_cast<ptrdiff_t>(mid),
                   order->begin() + static_cast<ptrdiff_t>(end),
                   [&](uint32_t a, uint32_t b) {
                     return data.Row(a)[widest] < data.Row(b)[widest];
                   });
  SplitKdLeaves(data, order, begin, mid, leaf_rows, leaves);
  SplitKdLeaves(data, order, mid, end, leaf_rows, leaves);
}

/// The rows the sidecar benchmarks test: 100k FOURIER rows at 16-d,
/// COLHIST at 64-d.
Dataset SidecarRows(uint32_t dim, Rng& rng) {
  constexpr size_t kRows = 100000;
  return dim == 16 ? GenFourier(kRows, dim, rng) : GenColhist(kRows, dim, rng);
}

/// One page per kd leaf of `data` (at most one 4 KiB data page's rows),
/// made by `make` from the leaf's rows in DataPageScan's layout (stride
/// dim + 2) and its row count, in shuffled order so that leaves near in
/// space are not near in memory; indexed by leaf.
template <typename Make>
auto MakeLeafPages(const Dataset& data, Rng& rng, const Make& make) {
  const uint32_t dim = data.dim();
  std::vector<uint32_t> order(data.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::pair<size_t, size_t>> leaves;
  SplitKdLeaves(data, &order, 0, order.size(), DataNode::Capacity(dim, 4096),
                &leaves);
  std::vector<decltype(make(std::vector<float>{}, size_t{0}))> pages(
      leaves.size());
  std::vector<size_t> build(leaves.size());
  std::iota(build.begin(), build.end(), size_t{0});
  for (size_t i = build.size(); i > 1; --i) {
    std::swap(build[i - 1], build[rng.NextBelow(i)]);
  }
  const size_t stride = dim + 2;  // DataPageScan layout
  std::vector<float> block;
  for (const size_t leaf : build) {
    const auto [begin, end] = leaves[leaf];
    block.assign((end - begin) * stride, 0.0f);
    for (size_t i = begin; i < end; ++i) {
      const auto row = data.Row(order[i]);
      std::copy(row.begin(), row.end(), block.begin() + (i - begin) * stride);
    }
    pages[leaf] = make(block, end - begin);
  }
  return pages;
}

/// One sidecar per kd leaf of `data` (MakeLeafPages).
std::vector<std::unique_ptr<const QuantizedPage>> MakeLeafSidecars(
    const Dataset& data, Rng& rng) {
  const uint32_t dim = data.dim();
  return MakeLeafPages(data, rng,
                       [dim](const std::vector<float>& block, size_t rows) {
                         return std::unique_ptr<const QuantizedPage>(
                             QuantizedPage::Build(block.data(), dim + 2, rows,
                                                  dim));
                       });
}

/// The true 10-NN distance of every query over `data`, under `metric`.
std::vector<double> TenthNeighborDistances(
    const Dataset& data, const std::vector<std::vector<float>>& queries,
    const DistanceMetric& metric) {
  constexpr size_t kK = 10;
  std::vector<double> bounds;
  std::vector<double> dist(data.size());
  for (const auto& c : queries) {
    for (size_t i = 0; i < dist.size(); ++i) {
      dist[i] = metric.Distance(c, data.Row(i));
    }
    std::nth_element(dist.begin(), dist.begin() + (kK - 1), dist.end());
    bounds.push_back(dist[kK - 1]);
  }
  return bounds;
}

std::unique_ptr<SidecarTests> MakeSidecarTests(uint32_t dim,
                                               const DistanceMetric& metric) {
  constexpr size_t kQueries = 64;
  Rng rng(9100 + dim);
  const Dataset data = SidecarRows(dim, rng);

  auto out = std::make_unique<SidecarTests>();
  out->pages = MakeLeafSidecars(data, rng);
  for (const auto& page : out->pages) {
    out->max_blocks = std::max(out->max_blocks, page->view().blocks);
  }

  out->queries = MakeQueryCenters(data, kQueries, rng);
  const std::vector<double> bounds =
      TenthNeighborDistances(data, out->queries, metric);
  for (size_t q = 0; q < out->queries.size(); ++q) {
    for (const auto& page : out->pages) {
      const quant::PageCodesView v = page->view();
      const Box grid = Box::FromBounds(
          std::vector<float>(v.grid_lo, v.grid_lo + dim),
          std::vector<float>(v.grid_hi, v.grid_hi + dim));
      if (metric.MinDistToBox(out->queries[q], grid) <= bounds[q]) {
        out->tests.push_back({q, page.get(), bounds[q]});
      }
    }
  }
  for (size_t i = out->tests.size(); i > 1; --i) {
    std::swap(out->tests[i - 1], out->tests[rng.NextBelow(i)]);
  }
  return out;
}

void BM_SidecarTest(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  L2Metric l2;
  L1Metric l1;
  const DistanceMetric& metric =
      state.range(1) == 0 ? static_cast<const DistanceMetric&>(l2) : l1;
  // Built once per argument pair: the benchmark body runs once per trial.
  static std::map<std::pair<int64_t, int64_t>, std::unique_ptr<SidecarTests>>
      cache;
  auto& set = cache[{state.range(0), state.range(1)}];
  if (set == nullptr) set = MakeSidecarTests(dim, metric);
  quant::FilterScratch scratch;
  std::vector<uint8_t> masks(set->max_blocks);
  uint64_t survivors = 0;
  const CpuTimer timer;
  for (auto _ : state) {
    survivors = 0;
    for (const SidecarTests::Test& t : set->tests) {
      const quant::PageCodesView v = t.page->view();
      metric.CodeFilterMasks(set->queries[t.query], v, t.bound, &scratch,
                             masks.data());
      for (size_t b = 0; b < v.blocks; ++b) {
        survivors += static_cast<uint64_t>(std::popcount(masks[b]));
      }
    }
    benchmark::DoNotOptimize(survivors);
  }
  const double ns = 1e9 * timer.Seconds();
  const double tests = static_cast<double>(set->tests.size());
  state.counters["ns_per_test"] =
      ns / (tests * static_cast<double>(state.iterations()));
  state.counters["tests"] = tests;
  state.counters["survivors"] = static_cast<double>(survivors);
  state.SetLabel(std::string(metric.Name()) + " " +
                 kernels::TierName(kernels::ActiveTier()));
}
BENCHMARK(BM_SidecarTest)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// The sidecar test a box search makes before it pins an admitted data
// page: one ctm_box call on the page's 8-bit sidecar, through
// quant::RunBoxKernel, writing one survivor bit per row
// (HybridTree::BoxFilter). The pages are built as BM_SidecarTest's are,
// from their own draw of the rows: kd leaves of about 49 rows at 16-d,
// about 12 at 64-d. Each of 64 boxes, its side calibrated to perfbench's
// box selectivity (0.07% on FOURIER 16-d, 0.2% on COLHIST 64-d), tests in
// shuffled order every page whose grid it overlaps in every dimension, as
// an admitted child's box does. Reports ns per test (thread CPU time), the
// pages ruled out and the surviving rows per test of one pass (both the
// same at every tier), and the active SIMD tier as the label. Arg: dim.
struct SidecarBoxTests {
  std::vector<Box> boxes;
  std::vector<std::unique_ptr<const QuantizedPage>> pages;
  std::vector<std::pair<size_t, const QuantizedPage*>> tests;
};

std::unique_ptr<SidecarBoxTests> MakeSidecarBoxTests(uint32_t dim) {
  constexpr size_t kBoxes = 64;
  constexpr size_t kProbes = 200;
  Rng rng(9300 + dim);
  const Dataset data = SidecarRows(dim, rng);
  auto out = std::make_unique<SidecarBoxTests>();
  out->pages = MakeLeafSidecars(data, rng);
  const double side =
      CalibrateBoxSide(data, dim == 16 ? 0.0007 : 0.002, kProbes, rng);
  for (const auto& c : MakeQueryCenters(data, kBoxes, rng)) {
    out->boxes.push_back(MakeBoxQuery(c, side));
  }
  for (size_t b = 0; b < out->boxes.size(); ++b) {
    for (const auto& page : out->pages) {
      const quant::PageCodesView v = page->view();
      const Box grid = Box::FromBounds(
          std::vector<float>(v.grid_lo, v.grid_lo + dim),
          std::vector<float>(v.grid_hi, v.grid_hi + dim));
      if (out->boxes[b].Intersects(grid)) {
        out->tests.emplace_back(b, page.get());
      }
    }
  }
  for (size_t i = out->tests.size(); i > 1; --i) {
    std::swap(out->tests[i - 1], out->tests[rng.NextBelow(i)]);
  }
  return out;
}

void BM_SidecarBoxTest(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  static std::map<int64_t, std::unique_ptr<SidecarBoxTests>> cache;
  auto& set = cache[state.range(0)];
  if (set == nullptr) set = MakeSidecarBoxTests(dim);
  quant::FilterScratch scratch;
  std::vector<uint8_t> masks;
  for (const auto& page : set->pages) {
    masks.resize(std::max(masks.size(), page->view().blocks));
  }
  const auto test = [&](size_t i) {
    const Box& b = set->boxes[set->tests[i].first];
    return quant::RunBoxKernel(kernels::Active().ctm_box,
                               set->tests[i].second->view(), b.lo().data(),
                               b.hi().data(), &scratch, masks.data());
  };
  uint64_t ruled_out = 0;
  const CpuTimer timer;
  for (auto _ : state) {
    ruled_out = 0;
    for (size_t i = 0; i < set->tests.size(); ++i) {
      if (!test(i)) ++ruled_out;
    }
    benchmark::DoNotOptimize(masks.data());
  }
  const double ns = 1e9 * timer.Seconds();
  // The surviving rows, counted in one more pass outside the timing.
  uint64_t survivors = 0;
  for (size_t i = 0; i < set->tests.size(); ++i) {
    test(i);
    for (size_t m = 0; m < set->tests[i].second->view().blocks; ++m) {
      survivors += static_cast<uint64_t>(std::popcount(masks[m]));
    }
  }
  const double tests = static_cast<double>(set->tests.size());
  state.counters["ns_per_test"] =
      ns / (tests * static_cast<double>(state.iterations()));
  state.counters["tests"] = tests;
  state.counters["ruled_out"] = static_cast<double>(ruled_out);
  state.counters["survivors_per_test"] =
      static_cast<double>(survivors) / tests;
  state.SetLabel(kernels::TierName(kernels::ActiveTier()));
}
BENCHMARK(BM_SidecarBoxTest)->Arg(16)->Arg(64);

// The bounded page scan a k-NN refines a dense page with:
// BatchDistanceWithBound over one data page's rows at the running bound,
// at the active SIMD tier. The pages are the kd leaves of
// BM_SidecarTest's rows (at most one 4 KiB data page's rows each, in
// DataPageScan's layout), and each of 64 queries scans, in shuffled
// order, every page whose MINDIST is within its true 10-NN distance, at
// that distance. Reports ns per scan (thread CPU time), rows per scan,
// the rows within the bound of one pass (the same at every tier), and the
// metric and tier as the label.
// Args: {dim, metric: 0 = L1, 1 = L2, 2 = LInf, 3 = WeightedL2}.
struct BatchScans {
  std::unique_ptr<DistanceMetric> metric;
  std::vector<std::vector<float>> queries;
  std::vector<std::pair<std::vector<float>, size_t>> pages;  // rows, count
  struct Scan {
    size_t query;
    size_t page;
    double bound;
  };
  std::vector<Scan> scans;
  size_t rows = 0;  // over all scans
};

std::unique_ptr<DistanceMetric> MakeKernelMetric(int64_t which,
                                                 uint32_t dim) {
  switch (which) {
    case 0:
      return std::make_unique<L1Metric>();
    case 1:
      return std::make_unique<L2Metric>();
    case 2:
      return std::make_unique<LInfMetric>();
    default: {
      std::vector<double> w(dim);
      for (uint32_t d = 0; d < dim; ++d) w[d] = 0.5 + 0.25 * (d % 4);
      return std::make_unique<WeightedL2Metric>(std::move(w));
    }
  }
}

std::unique_ptr<BatchScans> MakeBatchScans(uint32_t dim, int64_t which) {
  constexpr size_t kQueries = 64;
  Rng rng(9500 + dim);
  const Dataset data = SidecarRows(dim, rng);
  auto out = std::make_unique<BatchScans>();
  out->metric = MakeKernelMetric(which, dim);
  out->pages = MakeLeafPages(
      data, rng, [](const std::vector<float>& block, size_t rows) {
        return std::make_pair(block, rows);
      });
  std::vector<Box> grids;
  for (const auto& [block, rows] : out->pages) {
    Box grid = Box::Empty(dim);
    for (size_t i = 0; i < rows; ++i) {
      grid.ExtendToInclude(std::span<const float>(&block[i * (dim + 2)], dim));
    }
    grids.push_back(std::move(grid));
  }
  out->queries = MakeQueryCenters(data, kQueries, rng);
  const std::vector<double> bounds =
      TenthNeighborDistances(data, out->queries, *out->metric);
  for (size_t q = 0; q < out->queries.size(); ++q) {
    for (size_t p = 0; p < grids.size(); ++p) {
      if (out->metric->MinDistToBox(out->queries[q], grids[p]) <= bounds[q]) {
        out->scans.push_back({q, p, bounds[q]});
        out->rows += out->pages[p].second;
      }
    }
  }
  for (size_t i = out->scans.size(); i > 1; --i) {
    std::swap(out->scans[i - 1], out->scans[rng.NextBelow(i)]);
  }
  return out;
}

void BM_BatchDistance(benchmark::State& state) {
  const auto dim = static_cast<uint32_t>(state.range(0));
  static std::map<std::pair<int64_t, int64_t>, std::unique_ptr<BatchScans>>
      cache;
  auto& set = cache[{state.range(0), state.range(1)}];
  if (set == nullptr) set = MakeBatchScans(dim, state.range(1));
  std::vector<double> out(DataNode::Capacity(dim, 4096));
  uint64_t within = 0;
  const CpuTimer timer;
  for (auto _ : state) {
    within = 0;
    for (const BatchScans::Scan& s : set->scans) {
      const auto& [block, rows] = set->pages[s.page];
      set->metric->BatchDistanceWithBound(set->queries[s.query], block.data(),
                                          dim + 2, rows, s.bound, out.data());
      for (size_t i = 0; i < rows; ++i) within += out[i] <= s.bound ? 1 : 0;
    }
    benchmark::DoNotOptimize(within);
  }
  const double ns = 1e9 * timer.Seconds();
  const double scans = static_cast<double>(set->scans.size());
  state.counters["ns_per_scan"] =
      ns / (scans * static_cast<double>(state.iterations()));
  state.counters["rows_per_scan"] = static_cast<double>(set->rows) / scans;
  state.counters["within"] = static_cast<double>(within);
  state.SetLabel(set->metric->Name() + " " +
                 kernels::TierName(kernels::ActiveTier()));
}
BENCHMARK(BM_BatchDistance)
    ->ArgsProduct({{16, 64}, {0, 1, 2, 3}});

void BM_DataNodeSerialize(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  Rng rng(8400 + dim);
  DataNode node;
  const size_t cap = DataNode::Capacity(dim, 4096);
  for (size_t i = 0; i < cap; ++i) {
    node.entries.push_back(DataEntry{i, RandomVec(dim, rng)});
  }
  std::vector<uint8_t> page(4096);
  for (auto _ : state) {
    node.Serialize(page.data(), page.size(), dim);
    benchmark::DoNotOptimize(page.data());
  }
}
BENCHMARK(BM_DataNodeSerialize)->Arg(16)->Arg(64);

void BM_DataNodeDeserialize(benchmark::State& state) {
  const uint32_t dim = static_cast<uint32_t>(state.range(0));
  Rng rng(8500 + dim);
  DataNode node;
  const size_t cap = DataNode::Capacity(dim, 4096);
  for (size_t i = 0; i < cap; ++i) {
    node.entries.push_back(DataEntry{i, RandomVec(dim, rng)});
  }
  std::vector<uint8_t> page(4096);
  node.Serialize(page.data(), page.size(), dim);
  for (auto _ : state) {
    auto r = DataNode::Deserialize(page.data(), page.size(), dim);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DataNodeDeserialize)->Arg(16)->Arg(64);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  MemPagedFile file(4096);
  BufferPool pool(&file, 0);
  PageId id;
  {
    PageHandle h = pool.New().ValueOrDie();
    id = h.id();
    h.MarkDirty();
  }
  for (auto _ : state) {
    PageHandle h = pool.Fetch(id).ValueOrDie();
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_BufferPoolFetchEvicting(benchmark::State& state) {
  MemPagedFile file(4096);
  BufferPool pool(&file, 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    PageHandle h = pool.New().ValueOrDie();
    h.MarkDirty();
    ids.push_back(h.id());
  }
  size_t i = 0;
  for (auto _ : state) {
    PageHandle h = pool.Fetch(ids[i++ % ids.size()]).ValueOrDie();
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_BufferPoolFetchEvicting);

void BM_HybridInsert64d(benchmark::State& state) {
  Rng rng(8600);
  Dataset data = GenColhist(20000, 64, rng);
  MemPagedFile file(4096);
  HybridTreeOptions o;
  o.dim = 64;
  auto tree = HybridTree::Create(o, &file).ValueOrDie();
  size_t i = 0;
  for (auto _ : state) {
    HT_CHECK_OK(tree->Insert(data.Row(i % data.size()), i));
    ++i;
  }
}
BENCHMARK(BM_HybridInsert64d);

void BM_HybridBoxSearch64d(benchmark::State& state) {
  Rng rng(8700);
  Dataset data = GenColhist(10000, 64, rng);
  MemPagedFile file(4096);
  HybridTreeOptions o;
  o.dim = 64;
  auto tree = HybridTree::Create(o, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    HT_CHECK_OK(tree->Insert(data.Row(i), i));
  }
  std::vector<Box> queries;
  auto centers = MakeQueryCenters(data, 64, rng);
  for (const auto& c : centers) queries.push_back(MakeBoxQuery(c, 0.3));
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree->SearchBox(queries[q++ % queries.size()]).ValueOrDie());
  }
}
BENCHMARK(BM_HybridBoxSearch64d);

void BM_HybridKnn64d(benchmark::State& state) {
  Rng rng(8800);
  Dataset data = GenColhist(10000, 64, rng);
  MemPagedFile file(4096);
  HybridTreeOptions o;
  o.dim = 64;
  auto tree = HybridTree::Create(o, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    HT_CHECK_OK(tree->Insert(data.Row(i), i));
  }
  auto centers = MakeQueryCenters(data, 64, rng);
  L1Metric l1;
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree->SearchKnn(centers[q++ % centers.size()], 10, l1).ValueOrDie());
  }
}
BENCHMARK(BM_HybridKnn64d);

}  // namespace
}  // namespace ht

BENCHMARK_MAIN();

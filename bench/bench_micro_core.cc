// Micro-benchmarks of core primitives: distance metrics, box operations,
// node (de)serialization, buffer-pool access, and end-to-end hybrid-tree
// insert/search throughput at 64-d.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"
#include "geometry/metrics.h"

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

// Zero-allocation guarantee for the steady-state query hot path.
//
// Replaces global operator new/delete with counting versions, warms the
// tree's caches and a caller-owned SearchScratch with one pass of queries,
// then asserts that re-running the same queries through the *Into APIs
// and a k-NN cursor on the same scratch performs zero heap allocations:
// all traversal state lives in the scratch and the caller's output
// vectors, the buffer pool is warm, the node cache hits, and Status OK /
// batch kernels never allocate. At a SIMD tier every search filters each
// data page it visits from the page's sidecar and hands the survivors to
// that page's scan in the scratch; at the scalar tier nothing is filtered.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "geometry/kernels/kernels.h"
#include "geometry/metrics.h"

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as a mismatched
// pair under some inlining decisions (notably -fsanitize=undefined); the
// replacement new allocates with malloc, so the pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
// The nothrow forms too (std::stable_sort gets its temporary buffer from
// one): otherwise a sanitizer's own nothrow new would hand memory to the
// free() below and abort with an alloc-dealloc mismatch.
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ht {
namespace {

TEST(SearchAllocTest, SteadyStateQueriesDoNotAllocate) {
  const uint32_t dim = 16;
  Rng rng(808);
  Dataset data = GenFourier(5000, dim, rng);

  HybridTreeOptions o;
  o.dim = dim;
  o.page_size = 4096;
  MemPagedFile file(o.page_size);
  auto tree = HybridTree::Create(o, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data.Row(i), i).ok());
  }

  // Fixed query set, reused verbatim in the measured pass so the warmed
  // buffer capacities provably suffice.
  constexpr int kQueries = 8;
  std::vector<std::vector<float>> centers(kQueries);
  std::vector<Box> boxes;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<float> lo(dim), hi(dim);
    centers[q].resize(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      centers[q][d] = static_cast<float>(rng.NextDouble());
      lo[d] = centers[q][d] - 0.15f;
      hi[d] = centers[q][d] + 0.15f;
    }
    boxes.push_back(Box::FromBounds(lo, hi));
  }
  // Boxes around stored rows: each holds a hit, so its pages have
  // survivors.
  for (int q = 0; q < kQueries; ++q) {
    const auto row = data.Row(static_cast<size_t>(q) * 499);
    std::vector<float> lo(row.begin(), row.end()), hi = lo;
    for (uint32_t d = 0; d < dim; ++d) {
      lo[d] -= 0.05f;
      hi[d] += 0.05f;
    }
    boxes.push_back(Box::FromBounds(lo, hi));
  }

  L2Metric l2;
  // No batch MINDIST kernel: takes the default MinDistToBoxes gather.
  WeightedL2Metric wl2(std::vector<double>(dim, 0.5));
  SearchScratch scratch;
  std::vector<uint64_t> ids;
  std::vector<std::pair<double, uint64_t>> neighbors;

  auto run_all = [&]() {
    for (const Box& box : boxes) {
      ASSERT_TRUE(tree->SearchBoxInto(box, &scratch, &ids).ok());
    }
    for (int q = 0; q < kQueries; ++q) {
      ASSERT_TRUE(
          tree->SearchRangeInto(centers[q], 0.8, l2, &scratch, &ids).ok());
      ASSERT_TRUE(
          tree->SearchKnnInto(centers[q], 20, l2, &scratch, &neighbors).ok());
      ASSERT_FALSE(neighbors.empty());
      ASSERT_TRUE(
          tree->SearchKnnInto(centers[q], 20, wl2, &scratch, &neighbors).ok());
      // A cursor on a lent scratch keeps its whole state there.
      KnnCursorOptions copts;
      copts.limit = 20;
      HybridTree::KnnCursor cursor =
          tree->OpenKnnCursor(centers[q], l2, copts, &scratch);
      for (int i = 0; i < 20; ++i) {
        auto next = cursor.Next();
        ASSERT_TRUE(next.ok() && next.ValueOrDie().has_value());
      }
    }
  };

  // Warm-up: populates the buffer pool, the flat-node cache, the
  // scratch buffers and the output vectors.
  run_all();
  run_all();
  // The box queries the measured pass repeats filter pages and refine
  // their survivors.
  if (kernels::ActiveTier() != kernels::SimdTier::kScalar) {
    tree->pool().ResetStats();
    for (const Box& box : boxes) {
      ASSERT_TRUE(tree->SearchBoxInto(box, &scratch, &ids).ok());
    }
    EXPECT_GT(tree->pool().stats().quant_refined, 0u);
  }

  const size_t before = g_allocations.load(std::memory_order_relaxed);
  run_all();
  const size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in the steady-state loop";
}

}  // namespace
}  // namespace ht

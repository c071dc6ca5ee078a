// Property tests for the per-page 8-bit quantized filter-then-refine path:
//
//  * Soundness: for every metric with a code kernel and every supported
//    SIMD tier, the code lower bound never exceeds the true distance —
//    including adversarial cases (query equal to a stored point, degenerate
//    and near-degenerate dimensions, duplicated points, coordinates far
//    outside the unit cube).
//  * End-to-end identity: range / k-NN / box results with sidecars on
//    match the brute-force reference answers — k-NN bitwise, including
//    tie-breaks — and the sidecar-free tree, at every tier.
//  * Sidecar lifecycle: lazy build, invalidation on mutation, stale-sidecar
//    detection (QuantizedPage::Matches), validator integration.
//  * Layout pinning: the on-page block layout and sidecar alignment the
//    SIMD kernels rely on.
//  * Box code range: a row Box::ContainsPoint accepts always survives the
//    sidecar's code-range test, on random and adversarial pages and boxes.
//  * Filter before fetch: box answers on a small-pool tree, and answers
//    between random mutations, match brute force (a stale sidecar would
//    answer wrongly before the page is ever pinned).
//  * Accounting: scan_points / quant_refined / quant_pruned in IoStats.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/hybrid_tree.h"
#include "core/node.h"
#include "data/generators.h"
#include "data/workload.h"
#include "geometry/kernels/kernels.h"
#include "geometry/metrics.h"
#include "geometry/quantize.h"
#include "storage/quant_store.h"

namespace ht {
namespace {

// --- layout pinning --------------------------------------------------------
// The SIMD kernels and sidecar builder assume this exact data-page layout;
// a change here must be a deliberate format revision, not an accident.
static_assert(DataNode::kHeaderBytes == 4);
static_assert(Page::kAlignment == 64);
static_assert(quant::kDimPad == 16);
static_assert(quant::PaddedDim(1) == 16);
static_assert(quant::PaddedDim(16) == 16);
static_assert(quant::PaddedDim(17) == 32);

TEST(QuantLayout, PageBlockLayoutIsPinned) {
  for (uint32_t dim : {4u, 16u, 33u}) {
    EXPECT_EQ(DataNode::EntryBytes(dim), 8 + 4 * static_cast<size_t>(dim));
    DataNode node;
    node.entries.push_back({1, std::vector<float>(dim, 0.25f)});
    node.entries.push_back({2, std::vector<float>(dim, 0.75f)});
    std::vector<uint8_t> page(4096);
    node.Serialize(page.data(), page.size(), dim);
    DataPageScan scan(page.data(), page.size(), dim);
    ASSERT_TRUE(scan.ok());
    if (scan.block() == nullptr) GTEST_SKIP() << "big-endian host";
    // Row-major block with the next entry's 8-byte id inside the stride.
    EXPECT_EQ(scan.stride_floats(), dim + 2u);
    EXPECT_EQ(reinterpret_cast<const uint8_t*>(scan.block()),
              page.data() + DataNode::kHeaderBytes + 8);
  }
}

TEST(QuantLayout, PageFramesAndSidecarRowsAreAligned) {
  Page p(4096);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p.data()) % Page::kAlignment, 0u);
  Page q = p;  // copies keep the alignment
  EXPECT_EQ(reinterpret_cast<uintptr_t>(q.data()) % Page::kAlignment, 0u);

  const uint32_t dim = 7;
  std::vector<float> block(3 * (dim + 2), 0.5f);
  QuantizedPage qp(block.data(), dim + 2, 3, dim);
  const quant::PageCodesView v = qp.view();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.codes) % Page::kAlignment, 0u);
  EXPECT_EQ(v.stride, quant::PaddedDim(dim));
  EXPECT_EQ(v.stride % quant::kDimPad, 0u);
}

// --- helpers ---------------------------------------------------------------

std::vector<kernels::SimdTier> SupportedTiers() {
  std::vector<kernels::SimdTier> tiers = {kernels::SimdTier::kScalar};
  if (kernels::TierSupported(kernels::SimdTier::kAvx2)) {
    tiers.push_back(kernels::SimdTier::kAvx2);
  }
  if (kernels::TierSupported(kernels::SimdTier::kAvx512)) {
    tiers.push_back(kernels::SimdTier::kAvx512);
  }
  return tiers;
}

class ScopedTier {
 public:
  explicit ScopedTier(kernels::SimdTier tier) { kernels::ForceTier(tier); }
  ~ScopedTier() { kernels::ClearForcedTier(); }
};

std::unique_ptr<DistanceMetric> MakeMetric(int which, uint32_t dim) {
  switch (which) {
    case 0:
      return std::make_unique<L1Metric>();
    case 1:
      return std::make_unique<L2Metric>();
    case 2:
      return std::make_unique<LInfMetric>();
    default: {
      std::vector<double> w(dim);
      for (uint32_t d = 0; d < dim; ++d) w[d] = 0.05 + 0.15 * (d % 7);
      return std::make_unique<WeightedL2Metric>(std::move(w));
    }
  }
}

/// A synthetic page block in DataPageScan layout (stride = dim + 2).
struct TestBlock {
  uint32_t dim;
  size_t count;
  std::vector<float> data;
  const float* block() const { return data.data(); }
  size_t stride() const { return dim + 2; }
  float* row(size_t i) { return data.data() + i * stride(); }
};

TestBlock MakeBlock(uint32_t dim, size_t count) {
  TestBlock b;
  b.dim = dim;
  b.count = count;
  b.data.assign(count * (dim + 2), 0.0f);
  return b;
}

/// Checks lb <= true distance for every row, every metric, every tier.
void CheckSound(const TestBlock& b, const std::vector<float>& query) {
  QuantizedPage qp(b.block(), b.dim + 2, b.count, b.dim);
  quant::FilterScratch scratch;
  std::vector<double> lb(b.count);
  for (int m = 0; m < 4; ++m) {
    auto metric = MakeMetric(m, b.dim);
    for (const kernels::SimdTier tier : SupportedTiers()) {
      ScopedTier forced(tier);
      ASSERT_TRUE(metric->CodeLowerBounds(query, qp.view(), &scratch,
                                          lb.data()));
      for (size_t i = 0; i < b.count; ++i) {
        const std::span<const float> row(b.data.data() + i * b.stride(),
                                         b.dim);
        const double d = metric->Distance(query, row);
        ASSERT_LE(lb[i], d) << "metric " << metric->Name() << " tier "
                            << kernels::TierName(tier) << " row " << i;
        ASSERT_GE(lb[i], 0.0);
        ASSERT_FALSE(std::isnan(lb[i]));
      }
    }
  }
}

// --- soundness -------------------------------------------------------------

TEST(QuantSoundness, RandomPagesAndQueries) {
  Rng rng(977);
  for (uint32_t dim : {3u, 8u, 16u, 31u, 64u}) {
    for (int rep = 0; rep < 4; ++rep) {
      const size_t count = 1 + static_cast<size_t>(rng.NextDouble() * 120);
      TestBlock b = MakeBlock(dim, count);
      for (size_t i = 0; i < count; ++i) {
        for (uint32_t d = 0; d < dim; ++d) {
          b.row(i)[d] = static_cast<float>(rng.NextDouble());
        }
      }
      std::vector<float> query(dim);
      for (uint32_t d = 0; d < dim; ++d) {
        // Queries inside and well outside the data range.
        query[d] = static_cast<float>(rng.NextDouble() * 3.0 - 1.0);
      }
      CheckSound(b, query);
      // The query coinciding with a stored point: its true distance is 0,
      // so any positive lower bound would be unsound.
      std::span<const float> first(b.data.data(), dim);
      CheckSound(b, std::vector<float>(first.begin(), first.end()));
    }
  }
}

TEST(QuantSoundness, AdversarialGeometry) {
  const uint32_t dim = 8;
  // Degenerate dims (zero width), near-degenerate dims (1-ulp width at a
  // large magnitude, where float rounding of (q - lo) dwarfs the cell
  // width), exact grid boundaries, and duplicated points.
  TestBlock b = MakeBlock(dim, 5);
  const float big = 4096.0f;
  const float big_next = std::nextafterf(big, 2.0f * big);
  for (size_t i = 0; i < b.count; ++i) {
    float* r = b.row(i);
    r[0] = 0.5f;                          // degenerate: all equal
    r[1] = (i % 2 == 0) ? big : big_next;  // near-degenerate, large values
    r[2] = static_cast<float>(i) / 4.0f;  // exact 1/4 grid positions
    r[3] = (i < 2) ? 0.0f : 1.0f;         // two clusters
    r[4] = 0.125f * static_cast<float>(i);
    r[5] = -1.0f + 0.5f * static_cast<float>(i);  // negative coords
    r[6] = 1e-30f * static_cast<float>(i);        // subnormal-ish widths
    r[7] = 0.25f;
  }
  b.row(4)[4] = b.row(0)[4];  // duplicate coordinates across rows

  // Queries: a stored point (distance 0 for some row), points at cell
  // boundaries, and a far-away point.
  std::vector<float> q0(b.row(2), b.row(2) + dim);
  CheckSound(b, q0);
  std::vector<float> q1 = {0.5f, big, 0.25f, 0.0f, 0.125f, -0.5f, 0.0f,
                           0.25f};
  CheckSound(b, q1);
  std::vector<float> q2(dim, 100.0f);
  CheckSound(b, q2);
  std::vector<float> q3 = {0.5f, big_next, 0.5f, 1.0f, 0.0f, 1.0f,
                           1e-30f, 0.25f};
  CheckSound(b, q3);
}

TEST(QuantSoundness, SinglePointPage) {
  // One point: every grid dim is degenerate (lo == hi), codes are all 0.
  const uint32_t dim = 5;
  TestBlock b = MakeBlock(dim, 1);
  for (uint32_t d = 0; d < dim; ++d) b.row(0)[d] = 0.1f * (d + 1);
  std::vector<float> same(b.row(0), b.row(0) + dim);
  CheckSound(b, same);  // distance 0: lb must be <= 0
  CheckSound(b, std::vector<float>(dim, 0.9f));
}

// --- box code range --------------------------------------------------------

/// The box filter's contract on one page: every row Box::ContainsPoint
/// accepts has its codes inside the BoxCodeRange in every dimension, and
/// AnyRowMayBeInBox is exactly "some row's codes lie in that range".
/// Returns whether the page was ruled out.
bool CheckBoxFilter(const TestBlock& b, const std::vector<float>& lo,
                    const std::vector<float>& hi) {
  QuantizedPage qp(b.block(), b.stride(), b.count, b.dim);
  const quant::PageCodesView v = qp.view();
  const Box box = Box::FromBounds(lo, hi);
  const uint32_t dim = b.dim;
  std::vector<uint8_t> clo(dim), chi(dim);
  const float* l = lo.data();
  const float* h = hi.data();
  uint8_t* cl = clo.data();
  uint8_t* ch = chi.data();
  const bool ok = quant::BoxCodeRange(l, h, v.grid_lo, v.grid_hi, dim, cl, ch);
  bool any_inside = false;
  bool any_codes_in_range = false;
  for (size_t i = 0; i < b.count; ++i) {
    const uint8_t* codes = v.codes + i * v.stride;
    bool in_range = ok;
    for (uint32_t d = 0; d < b.dim && in_range; ++d) {
      in_range = codes[d] >= clo[d] && codes[d] <= chi[d];
    }
    any_codes_in_range = any_codes_in_range || in_range;
    const std::span<const float> row(b.data.data() + i * b.stride(), b.dim);
    if (box.ContainsPoint(row)) {
      any_inside = true;
      EXPECT_TRUE(in_range) << "row " << i << " in " << box.ToString();
    }
  }
  quant::FilterScratch scratch;
  const bool may = quant::AnyRowMayBeInBox(v, lo.data(), hi.data(), &scratch);
  EXPECT_EQ(may, any_codes_in_range);
  if (any_inside) {
    EXPECT_TRUE(may);
  }
  return !may;
}

TEST(QuantBoxFilter, CodeRangeIsSoundOnRandomPagesAndBoxes) {
  Rng rng(7321);
  size_t ruled_out = 0, boxes = 0;
  for (uint32_t dim = 1; dim <= 64; dim += (dim < 8 ? 1 : 7)) {
    for (int rep = 0; rep < 6; ++rep) {
      const size_t count = 1 + static_cast<size_t>(rng.NextDouble() * 70);
      TestBlock b = MakeBlock(dim, count);
      for (size_t i = 0; i < count; ++i) {
        for (uint32_t d = 0; d < dim; ++d) {
          // Every third dimension holds few distinct values, so rows tie
          // and sit on cell edges.
          const double u = rng.NextDouble();
          const double x = d % 3 == 0 ? std::floor(u * 4) / 4 : u;
          b.row(i)[d] = static_cast<float>(x);
        }
      }
      for (int q = 0; q < 20; ++q) {
        std::vector<float> lo(dim), hi(dim);
        const size_t anchor = static_cast<size_t>(rng.NextDouble() * count);
        for (uint32_t d = 0; d < dim; ++d) {
          // Boxes around a stored row (hits) and random ones (mostly not).
          const double u = rng.NextDouble();
          const float c = q % 2 == 0 ? b.row(anchor)[d] : static_cast<float>(u);
          const float half = static_cast<float>(rng.NextDouble() * 0.4);
          lo[d] = c - half;
          hi[d] = c + half;
        }
        ruled_out += CheckBoxFilter(b, lo, hi) ? 1 : 0;
        ++boxes;
      }
    }
  }
  // The test must exercise both verdicts.
  EXPECT_GT(ruled_out, 0u);
  EXPECT_LT(ruled_out, boxes);
}

TEST(QuantBoxFilter, CodeRangeIsSoundOnAdversarialPagesAndBoxes) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  for (uint32_t dim : {1u, 3u, 8u, 17u, 64u}) {
    // Rows on exact grid positions, a zero-width dimension (d % 4 == 0),
    // signed zeros, duplicated rows and a near-degenerate dimension.
    const size_t count = 21;
    TestBlock b = MakeBlock(dim, count);
    for (size_t i = 0; i < count; ++i) {
      for (uint32_t d = 0; d < dim; ++d) {
        float v = static_cast<float>(i % 5) / 4.0f;
        if (d % 4 == 0) v = 0.5f;
        if (d % 4 == 1) v = (i % 2 == 0) ? -0.0f : 0.0f;
        if (d % 4 == 3) v = (i % 2 == 0) ? 1.0f : std::nextafterf(1.0f, 2.0f);
        b.row(i)[d] = v;
      }
    }
    const std::vector<float> row0(b.row(0), b.row(0) + dim);
    const std::vector<float> row3(b.row(3), b.row(3) + dim);
    QuantizedPage qp(b.block(), b.stride(), count, dim);
    const std::vector<float> glo(qp.view().grid_lo, qp.view().grid_lo + dim);
    const std::vector<float> ghi(qp.view().grid_hi, qp.view().grid_hi + dim);
    const auto with = [&](std::vector<float> base, float v) {
      for (uint32_t d = 0; d < dim; d += 2) base[d] = v;
      return base;
    };
    const std::vector<float> all(dim, kInf), none(dim, -kInf);
    // Point boxes on stored rows, the grid, its corners, inverted boxes.
    CheckBoxFilter(b, row0, row0);
    CheckBoxFilter(b, row3, row3);
    CheckBoxFilter(b, glo, ghi);
    CheckBoxFilter(b, glo, glo);
    CheckBoxFilter(b, ghi, ghi);
    CheckBoxFilter(b, ghi, glo);
    CheckBoxFilter(b, row3, row0);
    // Signed zeros on either bound.
    CheckBoxFilter(b, with(row3, -0.0f), with(row3, 0.0f));
    CheckBoxFilter(b, with(row3, 0.0f), with(row3, -0.0f));
    // NaN bounds put no limit on their side.
    CheckBoxFilter(b, with(row0, kNaN), with(row0, kNaN));
    CheckBoxFilter(b, with(glo, kNaN), ghi);
    CheckBoxFilter(b, glo, with(ghi, kNaN));
    // Infinite bounds clamp to the first or last cell.
    CheckBoxFilter(b, none, all);
    CheckBoxFilter(b, with(row3, -kInf), with(row3, kInf));
    CheckBoxFilter(b, all, all);
    CheckBoxFilter(b, none, none);
    // Bounds one ulp past the grid rule out every row.
    std::vector<float> above(dim), below_grid(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      above[d] = std::nextafterf(ghi[d], kInf);
      below_grid[d] = std::nextafterf(glo[d], -kInf);
    }
    EXPECT_TRUE(CheckBoxFilter(b, above, all));
    EXPECT_TRUE(CheckBoxFilter(b, none, below_grid));
    // Every row equal: the grid is zero-width in every dimension.
    TestBlock flat = MakeBlock(dim, 9);
    for (size_t i = 0; i < flat.count; ++i) {
      for (uint32_t d = 0; d < dim; ++d) flat.row(i)[d] = 0.25f;
    }
    const std::vector<float> at(dim, 0.25f), below(dim, 0.0f);
    EXPECT_FALSE(CheckBoxFilter(flat, at, at));
    EXPECT_TRUE(CheckBoxFilter(flat, below, below));
    EXPECT_FALSE(CheckBoxFilter(flat, below, at));
  }
}

// --- transposed mirror -----------------------------------------------------

// The sidecar's transposed float mirror must yield bit-identical outputs to
// the strided page kernels at every tier, for every metric with a
// transposed kernel, bounded and unbounded — it is a pure layout change.
TEST(QuantTransposed, TransposedKernelsMatchStridedBitForBit) {
  Rng rng(2024);
  for (uint32_t dim : {3u, 8u, 16u, 31u}) {
    const size_t count = 53;  // 6 full blocks + a 5-row tail
    TestBlock b = MakeBlock(dim, count);
    for (size_t i = 0; i < count; ++i) {
      for (uint32_t d = 0; d < dim; ++d) {
        b.row(i)[d] = static_cast<float>(rng.NextDouble());
      }
    }
    QuantizedPage qp(b.block(), b.stride(), count, dim);
    ASSERT_EQ(qp.full_blocks(), count / kernels::kTBlock);
    ASSERT_NE(qp.tfloats(), nullptr);
    std::vector<float> query(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      query[d] = static_cast<float>(rng.NextDouble() * 2.0 - 0.5);
    }
    for (int m = 0; m < 4; ++m) {
      auto metric = MakeMetric(m, dim);
      // A bound near a mid-page distance abandons some rows but not all;
      // +inf exercises the no-abandonment path.
      const double mid =
          metric->Distance(query, {b.data.data() + 20 * b.stride(), dim});
      for (const double bound :
           {std::numeric_limits<double>::infinity(), mid}) {
        for (const kernels::SimdTier tier : SupportedTiers()) {
          ScopedTier forced(tier);
          std::vector<double> strided(count), transposed(count, -1.0);
          metric->BatchDistanceWithBound(query, b.block(), b.stride(), count,
                                         bound, strided.data());
          ASSERT_TRUE(metric->BatchDistanceTransposedWithBound(
              query, qp.tfloats(), qp.full_blocks(), bound,
              transposed.data()));
          for (size_t i = 0; i < qp.full_blocks() * kernels::kTBlock; ++i) {
            EXPECT_EQ(std::bit_cast<uint64_t>(strided[i]),
                      std::bit_cast<uint64_t>(transposed[i]))
                << "metric " << metric->Name() << " tier "
                << kernels::TierName(tier) << " bound " << bound << " row "
                << i << ": " << strided[i] << " vs " << transposed[i];
          }
        }
      }
    }
  }
  // QuadraticForm has no transposed kernel and must decline.
  const uint32_t dim = 4;
  std::vector<double> eye(dim * dim, 0.0);
  for (uint32_t d = 0; d < dim; ++d) eye[d * dim + d] = 1.0;
  QuadraticFormMetric qf(dim, std::move(eye));
  std::vector<float> q(dim, 0.5f);
  double out[8];
  EXPECT_FALSE(qf.BatchDistanceTransposedWithBound(q, nullptr, 0, 1.0, out));
}

// The transposed-code kernels replay the scalar reference's accumulation
// order lane by lane, so full-block code bounds are bitwise identical
// across tiers (the row-major tail kernels reassociate and only promise
// soundness — the comparison stops at the last full block).
TEST(QuantTransposed, TransposedCodeBoundsMatchScalarBitForBit) {
  Rng rng(515);
  for (uint32_t dim : {3u, 8u, 16u, 31u}) {
    const size_t count = 61;  // 7 full blocks + a 5-row tail
    TestBlock b = MakeBlock(dim, count);
    for (size_t i = 0; i < count; ++i) {
      for (uint32_t d = 0; d < dim; ++d) {
        b.row(i)[d] = static_cast<float>(rng.NextDouble());
      }
    }
    QuantizedPage qp(b.block(), b.stride(), count, dim);
    std::vector<float> query(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      query[d] = static_cast<float>(rng.NextDouble() * 2.0 - 0.5);
    }
    quant::FilterScratch scratch;
    for (int m = 0; m < 4; ++m) {
      auto metric = MakeMetric(m, dim);
      std::vector<double> ref(count);
      {
        ScopedTier forced(kernels::SimdTier::kScalar);
        ASSERT_TRUE(metric->CodeLowerBounds(query, qp.view(), &scratch,
                                            ref.data()));
      }
      for (const kernels::SimdTier tier : SupportedTiers()) {
        ScopedTier forced(tier);
        std::vector<double> lb(count);
        ASSERT_TRUE(metric->CodeLowerBounds(query, qp.view(), &scratch,
                                            lb.data()));
        for (size_t i = 0; i < qp.full_blocks() * kernels::kTBlock; ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(ref[i]),
                    std::bit_cast<uint64_t>(lb[i]))
              << "metric " << metric->Name() << " tier "
              << kernels::TierName(tier) << " dim " << dim << " row " << i
              << ": " << ref[i] << " vs " << lb[i];
        }
      }
    }
  }
}

// --- fused mask filter -----------------------------------------------------
//
// CodeFilterMasks must agree with the `lb <= bound` rule: every row that
// rule keeps must have its bit set (anything less would be unsound — and
// rows whose TRUE distance is within the bound are a subset of those), and
// a set bit may overshoot the rule only by FilterThreshold's hair of
// upward slack. Full-block mask bytes must also be bitwise identical
// across tiers (the tail byte comes from the row-major kernels, which only
// promise soundness).
TEST(QuantMask, MasksMatchBoundDecisionsAndTiers) {
  Rng rng(727);
  for (uint32_t dim : {3u, 8u, 16u, 31u}) {
    const size_t count = 61;  // 7 full blocks + a 5-row tail
    TestBlock b = MakeBlock(dim, count);
    for (size_t i = 0; i < count; ++i) {
      for (uint32_t d = 0; d < dim; ++d) {
        b.row(i)[d] = static_cast<float>(rng.NextDouble());
      }
    }
    QuantizedPage qp(b.block(), b.stride(), count, dim);
    std::vector<float> query(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      query[d] = static_cast<float>(rng.NextDouble() * 2.0 - 0.5);
    }
    quant::FilterScratch scratch;
    const size_t nmask = (count + kernels::kTBlock - 1) / kernels::kTBlock;
    for (int m = 0; m < 4; ++m) {
      auto metric = MakeMetric(m, dim);
      std::vector<double> exact(count);
      std::vector<double> sorted(count);
      for (size_t i = 0; i < count; ++i) {
        const std::span<const float> row(b.data.data() + i * b.stride(), dim);
        exact[i] = metric->Distance(query, row);
      }
      sorted = exact;
      std::sort(sorted.begin(), sorted.end());
      const double bounds[] = {0.0, sorted[count / 4], sorted[count / 2],
                               sorted[count - 1], 1e300};
      for (const double bound : bounds) {
        std::vector<uint8_t> ref(nmask, 0xAA);
        {
          ScopedTier forced(kernels::SimdTier::kScalar);
          ASSERT_TRUE(metric->CodeFilterMasks(query, qp.view(), bound,
                                              &scratch, ref.data()));
        }
        for (const kernels::SimdTier tier : SupportedTiers()) {
          ScopedTier forced(tier);
          std::vector<uint8_t> masks(nmask, 0x55);
          std::vector<double> lb(count);
          ASSERT_TRUE(metric->CodeFilterMasks(query, qp.view(), bound,
                                              &scratch, masks.data()));
          ASSERT_TRUE(metric->CodeLowerBounds(query, qp.view(), &scratch,
                                              lb.data()));
          for (size_t blk = 0; blk < qp.full_blocks(); ++blk) {
            EXPECT_EQ(ref[blk], masks[blk])
                << "metric " << metric->Name() << " tier "
                << kernels::TierName(tier) << " dim " << dim << " block "
                << blk;
          }
          for (size_t i = 0; i < count; ++i) {
            const bool bit =
                (masks[i / kernels::kTBlock] >> (i % kernels::kTBlock)) & 1;
            const char* ctx = metric->Name().c_str();
            if (exact[i] <= bound) {
              EXPECT_TRUE(bit) << ctx << " pruned a true hit, row " << i;
            }
            if (lb[i] <= bound) {
              EXPECT_TRUE(bit) << ctx << " stricter than lb rule, row " << i;
            }
            if (bit) {
              EXPECT_LE(lb[i], bound * (1.0 + 1e-9))
                  << ctx << " kept a row the lb rule prunes, row " << i;
            }
          }
        }
      }
    }
  }
  // QuadraticForm has no mask kernel and must decline.
  const uint32_t dim = 4;
  std::vector<double> eye(dim * dim, 0.0);
  for (uint32_t d = 0; d < dim; ++d) eye[d * dim + d] = 1.0;
  QuadraticFormMetric qf(dim, std::move(eye));
  std::vector<float> q(dim, 0.5f);
  TestBlock b = MakeBlock(dim, 9);
  QuantizedPage qp(b.block(), b.stride(), 9, dim);
  quant::FilterScratch scratch;
  uint8_t masks[2];
  EXPECT_FALSE(qf.CodeFilterMasks(q, qp.view(), 1.0, &scratch, masks));
}

// --- stale-sidecar detection ----------------------------------------------

TEST(QuantStoreTest, MatchesDetectsContentChanges) {
  const uint32_t dim = 6;
  Rng rng(31);
  TestBlock b = MakeBlock(dim, 40);
  for (size_t i = 0; i < b.count; ++i) {
    for (uint32_t d = 0; d < dim; ++d) {
      b.row(i)[d] = static_cast<float>(rng.NextDouble());
    }
  }
  QuantizedPage qp(b.block(), b.stride(), b.count, dim);
  EXPECT_TRUE(qp.Matches(b.block(), b.stride(), b.count, dim));
  // Count / dim mismatches.
  EXPECT_FALSE(qp.Matches(b.block(), b.stride(), b.count - 1, dim));
  EXPECT_FALSE(qp.Matches(b.block(), b.stride(), b.count, dim - 1));
  // A single-coordinate change must be caught (it moves the grid or the
  // point's code).
  const float saved = b.row(17)[3];
  b.row(17)[3] = saved < 0.5f ? saved + 0.4f : saved - 0.4f;
  EXPECT_FALSE(qp.Matches(b.block(), b.stride(), b.count, dim));
  b.row(17)[3] = saved;
  EXPECT_TRUE(qp.Matches(b.block(), b.stride(), b.count, dim));
}

TEST(QuantStoreTest, LifecycleAndInvalidation) {
  const uint32_t dim = 4;
  TestBlock b = MakeBlock(dim, 8);
  for (size_t i = 0; i < b.count; ++i) {
    for (uint32_t d = 0; d < dim; ++d) {
      b.row(i)[d] = 0.1f * static_cast<float>(i + d);
    }
  }
  QuantStore store;
  EXPECT_EQ(store.CachedPages(), 0u);
  EXPECT_EQ(store.Lookup(7), nullptr);
  const QuantizedPage* qp =
      store.GetOrBuild(7, b.block(), b.stride(), b.count, dim);
  ASSERT_NE(qp, nullptr);
  EXPECT_EQ(store.CachedPages(), 1u);
  // Cached: same object back.
  EXPECT_EQ(store.GetOrBuild(7, b.block(), b.stride(), b.count, dim), qp);
  EXPECT_EQ(store.Lookup(7), qp);
  // Empty pages never get a sidecar.
  EXPECT_EQ(store.GetOrBuild(9, b.block(), b.stride(), 0, dim), nullptr);
  store.Invalidate(7);
  EXPECT_EQ(store.Lookup(7), nullptr);
  EXPECT_EQ(store.CachedPages(), 0u);
}

// --- end-to-end byte-identity ----------------------------------------------

std::unique_ptr<HybridTree> BuildTree(const Dataset& data, uint32_t dim,
                                      bool quant, MemPagedFile* file,
                                      size_t pool_pages = 0) {
  HybridTreeOptions o;
  o.dim = dim;
  o.page_size = file->page_size();
  o.quant_sidecars = quant;
  o.buffer_pool_pages = pool_pages;
  auto tree = HybridTree::Create(o, file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(tree->Insert(data.Row(i), i).ok());
  }
  return tree;
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(QuantByteIdentity, FilteredResultsMatchBruteForceAtEveryTier) {
  const uint32_t dim = 16;
  const size_t kRows = 2500;
  const size_t kDuplicates = 25;
  Rng rng(8181);
  Dataset colhist = GenColhist(kRows, dim, rng);
  // Duplicates of the first rows (under their own ids) so exact ties
  // exist under every metric.
  Dataset data(dim, kRows + kDuplicates);
  for (size_t i = 0; i < data.size(); ++i) {
    const auto row = colhist.Row(i < kRows ? i : i - kRows);
    std::copy(row.begin(), row.end(), data.MutableRow(i).begin());
  }

  MemPagedFile f_quant(4096), f_plain(4096);
  auto quant_tree = BuildTree(data, dim, /*quant=*/true, &f_quant);
  auto plain_tree = BuildTree(data, dim, /*quant=*/false, &f_plain);

  L2Metric l2;
  L1Metric l1;
  LInfMetric linf;
  std::vector<double> w(dim);
  for (uint32_t d = 0; d < dim; ++d) w[d] = 0.2 + 0.05 * d;
  WeightedL2Metric wl2{std::move(w)};
  const DistanceMetric* metrics[] = {&l2, &l1, &linf, &wl2};

  // The first tier is scalar; later tiers must reproduce its range
  // answers in the tree's own order, not just as sets.
  std::vector<std::vector<uint64_t>> first_tier;
  for (const kernels::SimdTier tier : SupportedTiers()) {
    ScopedTier forced(tier);
    std::vector<std::vector<uint64_t>> answers;
    Rng qrng(99);  // same queries at every tier
    for (int q = 0; q < 10; ++q) {
      std::vector<float> center(dim);
      for (uint32_t d = 0; d < dim; ++d) {
        center[d] = static_cast<float>(qrng.NextDouble());
      }
      for (const DistanceMetric* metric : metrics) {
        const std::string where = "metric " + metric->Name() + ", tier " +
                                  kernels::TierName(tier) + ", query " +
                                  std::to_string(q);
        const double radius = 0.1 + 0.5 * qrng.NextDouble();
        auto r_quant = quant_tree->SearchRange(center, radius, *metric)
                           .ValueOrDie();
        auto r_plain = plain_tree->SearchRange(center, radius, *metric)
                           .ValueOrDie();
        EXPECT_EQ(Sorted(r_quant),
                  BruteForceRange(data, center, radius, *metric))
            << "range, " << where;
        // Sidecars change no traversal: same ids in the same order.
        EXPECT_EQ(r_quant, r_plain) << "range, " << where;
        answers.push_back(std::move(r_quant));

        for (size_t k : {1u, 10u, 50u}) {
          auto n_ref = BruteForceKnn(data, center, k, *metric);
          auto n_quant =
              quant_tree->SearchKnn(center, k, *metric).ValueOrDie();
          ASSERT_EQ(n_ref.size(), n_quant.size());
          for (size_t i = 0; i < n_ref.size(); ++i) {
            EXPECT_EQ(std::bit_cast<uint64_t>(n_ref[i].first),
                      std::bit_cast<uint64_t>(n_quant[i].first))
                << where << ", k " << k << ", rank " << i;
            EXPECT_EQ(n_ref[i].second, n_quant[i].second)
                << where << ", k " << k << ", rank " << i;
          }
        }
      }
      // Box results are untouched by the filter but sweep the same trees.
      std::vector<float> lo(dim), hi(dim);
      for (uint32_t d = 0; d < dim; ++d) {
        lo[d] = center[d] - 0.3f;
        hi[d] = center[d] + 0.3f;
      }
      Box box = Box::FromBounds(lo, hi);
      EXPECT_EQ(Sorted(quant_tree->SearchBox(box).ValueOrDie()),
                BruteForceBox(data, box));
    }
    if (first_tier.empty()) {
      first_tier = std::move(answers);
    } else {
      EXPECT_EQ(answers, first_tier) << "tier " << kernels::TierName(tier);
    }
  }
}

// --- filter before fetch through the tree ----------------------------------

// Box search rules out a page from its sidecar only when the page is not
// resident, so the trees get a pool far smaller than themselves.
TEST(QuantBoxFilter, SmallPoolBoxAnswersMatchBruteForceAtEveryTier) {
  const uint32_t dim = 16;
  Rng rng(5150);
  Dataset data = GenFourier(3000, dim, rng);
  MemPagedFile f_on(4096), f_off(4096);
  auto on = BuildTree(data, dim, /*quant=*/true, &f_on, /*pool_pages=*/12);
  auto off = BuildTree(data, dim, /*quant=*/false, &f_off, /*pool_pages=*/12);

  // Metric scans build the sidecars the box filter reads (at a SIMD tier).
  L2Metric l2;
  auto centers = MakeQueryCenters(data, 40, rng);
  {
    ScopedTier best(kernels::BestSupportedTier());
    for (const auto& c : centers) ASSERT_TRUE(on->SearchKnn(c, 20, l2).ok());
  }
  const double side = CalibrateBoxSide(data, 0.01, 10, rng);
  std::vector<Box> boxes;
  for (const auto& c : centers) boxes.push_back(MakeBoxQuery(c, side));
  // Half-open boxes: the code range clamps ±inf to the first or last cell.
  const float kInf = std::numeric_limits<float>::infinity();
  for (size_t i = 0; i < 8; ++i) {
    Box b = boxes[i];
    for (uint32_t d = static_cast<uint32_t>(i % 2); d < dim; d += 2) {
      if (i % 4 < 2) {
        b.set_lo(d, -kInf);
      } else {
        b.set_hi(d, kInf);
      }
    }
    boxes.push_back(b);
  }

  uint64_t skipped = 0;
  for (const kernels::SimdTier tier : SupportedTiers()) {
    ScopedTier forced(tier);
    for (size_t q = 0; q < boxes.size(); ++q) {
      const auto want = BruteForceBox(data, boxes[q]);
      on->pool().ResetStats();
      EXPECT_EQ(Sorted(on->SearchBox(boxes[q]).ValueOrDie()), want)
          << "tier " << kernels::TierName(tier) << ", box " << q;
      skipped += on->pool().StatsSnapshot().quant_skipped_pages;
      EXPECT_EQ(Sorted(off->SearchBox(boxes[q]).ValueOrDie()), want)
          << "tier " << kernels::TierName(tier) << ", box " << q;
    }
  }
  if (kernels::BestSupportedTier() != kernels::SimdTier::kScalar) {
    EXPECT_GT(skipped, 0u) << "no box visit was ruled out from a sidecar";
  }
  EXPECT_EQ(off->CachedQuantPages(), 0u);
}

/// Brute-force answers over a set of (id, row) entries that changes
/// between queries.
class LiveRows {
 public:
  void Add(uint64_t id, std::vector<float> row) { rows_[id] = std::move(row); }
  void Remove(uint64_t id) { rows_.erase(id); }
  const std::map<uint64_t, std::vector<float>>& rows() const { return rows_; }

  std::vector<uint64_t> InBox(const Box& box) const {
    std::vector<uint64_t> ids;
    for (const auto& [id, row] : rows_) {
      if (box.ContainsPoint(row)) ids.push_back(id);
    }
    return ids;
  }
  std::vector<uint64_t> InRange(std::span<const float> center, double radius,
                                const DistanceMetric& metric) const {
    std::vector<uint64_t> ids;
    for (const auto& [id, row] : rows_) {
      if (metric.Distance(center, row) <= radius) ids.push_back(id);
    }
    return ids;
  }
  std::vector<std::pair<double, uint64_t>> Knn(
      std::span<const float> center, size_t k,
      const DistanceMetric& metric) const {
    std::vector<std::pair<double, uint64_t>> all;
    for (const auto& [id, row] : rows_) {
      all.emplace_back(metric.Distance(center, row), id);
    }
    std::sort(all.begin(), all.end());
    if (all.size() > k) all.resize(k);
    return all;
  }

 private:
  std::map<uint64_t, std::vector<float>> rows_;
};

// Searches trust that a sidecar belongs to a live data page with exactly
// those rows: k-NN and range filter before the pin, and box search rules
// out pages that are not resident. A random Insert / InsertBatch / Delete
// sequence (delete bursts underflow pages, so pages are freed and their
// ids reused) on a small-pool tree checks every answer against brute force
// between mutations; a write path that forgot to invalidate a sidecar
// answers from stale codes and fails here.
TEST(QuantStaleSidecar, MutationsNeverAnswerFromAStaleSidecar) {
  // Runs at the startup tier, so an HT_SIMD run covers its own tier.
  if (kernels::ActiveTier() == kernels::SimdTier::kScalar) {
    GTEST_SKIP() << "sidecar filtering requires a SIMD tier";
  }
  const uint32_t dim = 6;
  Rng rng(9091);
  HybridTreeOptions o;
  o.dim = dim;
  o.page_size = 1024;
  o.buffer_pool_pages = 8;
  MemPagedFile file(o.page_size);
  auto tree = HybridTree::Create(o, &file).ValueOrDie();
  LiveRows live;
  uint64_t next_id = 0;
  const auto random_row = [&] {
    std::vector<float> p(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      p[d] = static_cast<float>(rng.NextDouble());
    }
    return p;
  };
  for (int i = 0; i < 600; ++i) {
    auto p = random_row();
    ASSERT_TRUE(tree->Insert(p, next_id).ok());
    live.Add(next_id++, std::move(p));
  }

  L2Metric l2;
  SearchScratch scratch;
  const auto check = [&](const std::vector<float>& center, int step) {
    std::vector<std::pair<double, uint64_t>> nn;
    ASSERT_TRUE(tree->SearchKnnInto(center, 8, l2, &scratch, &nn).ok());
    EXPECT_EQ(nn, live.Knn(center, 8, l2)) << "k-NN, step " << step;
    std::vector<uint64_t> ids;
    ASSERT_TRUE(tree->SearchRangeInto(center, 0.3, l2, &scratch, &ids).ok());
    EXPECT_EQ(Sorted(ids), live.InRange(center, 0.3, l2))
        << "range, step " << step;
    const Box box = MakeBoxQuery(center, 0.4);
    ASSERT_TRUE(tree->SearchBoxInto(box, &scratch, &ids).ok());
    EXPECT_EQ(Sorted(ids), live.InBox(box)) << "box, step " << step;
  };

  std::vector<std::vector<float>> touched;
  for (int step = 0; step < 200 && !HasFailure(); ++step) {
    touched.clear();
    const double u = rng.NextDouble();
    if (u < 0.3) {
      auto p = random_row();
      ASSERT_TRUE(tree->Insert(p, next_id).ok());
      touched.push_back(p);
      live.Add(next_id++, std::move(p));
    } else if (u < 0.55) {
      const size_t n = 1 + static_cast<size_t>(rng.NextDouble() * 32);
      std::vector<float> points;
      std::vector<uint64_t> ids;
      for (size_t i = 0; i < n; ++i) {
        auto p = random_row();
        points.insert(points.end(), p.begin(), p.end());
        ids.push_back(next_id);
        if (i < 3) touched.push_back(p);
        live.Add(next_id++, std::move(p));
      }
      ASSERT_TRUE(tree->InsertBatch(points, ids).ok());
    } else {
      // Delete the rows nearest a random point: they share pages, so the
      // burst underflows and eliminates nodes.
      const auto center = random_row();
      const size_t n = 1 + static_cast<size_t>(rng.NextDouble() * 24);
      for (const auto& [d, id] : live.Knn(center, n, l2)) {
        const std::vector<float> row = live.rows().at(id);
        ASSERT_TRUE(tree->Delete(row, id).ok());
        if (touched.size() < 3) touched.push_back(row);
        live.Remove(id);
      }
    }
    // Queries centred on the rows just written or deleted (an inserted
    // row is at distance 0 from its own centre), plus one at random so
    // sidecars keep being built across the tree.
    for (const auto& c : touched) check(c, step);
    check(random_row(), step);
  }
  EXPECT_GT(tree->pool().StatsSnapshot().frees, 0u) << "no page was freed";
  EXPECT_GT(tree->CachedQuantPages(), 0u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

// --- lifecycle through the tree --------------------------------------------

TEST(QuantTreeLifecycle, LazyBuildInvalidateAndValidate) {
  // Sidecars only engage on SIMD tiers (the scalar tier runs the
  // pre-sidecar hot path), so pin the best one for the lifecycle checks.
  if (kernels::BestSupportedTier() == kernels::SimdTier::kScalar) {
    GTEST_SKIP() << "sidecar filtering requires a SIMD tier";
  }
  ScopedTier forced(kernels::BestSupportedTier());
  const uint32_t dim = 8;
  Rng rng(606);
  Dataset data = GenUniform(1200, dim, rng);
  MemPagedFile file(4096);
  auto tree = BuildTree(data, dim, /*quant=*/true, &file);

  // Nothing is built until a bounded scan needs it.
  EXPECT_EQ(tree->CachedQuantPages(), 0u);
  L2Metric l2;
  std::vector<float> center(dim, 0.5f);
  ASSERT_TRUE(tree->SearchRange(center, 0.4, l2).ok());
  const size_t cached = tree->CachedQuantPages();
  EXPECT_GT(cached, 0u);
  // The validator cross-checks every cached sidecar against its page.
  EXPECT_TRUE(tree->CheckInvariants().ok());

  // Mutations invalidate affected sidecars and keep the validator green.
  for (size_t i = 0; i < 200; ++i) {
    std::vector<float> p(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      p[d] = static_cast<float>(rng.NextDouble());
    }
    ASSERT_TRUE(tree->Insert(p, 50000 + i).ok());
  }
  EXPECT_TRUE(tree->CheckInvariants().ok());
  ASSERT_TRUE(tree->SearchRange(center, 0.4, l2).ok());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree->Delete(data.Row(i), i).ok());
  }
  EXPECT_TRUE(tree->CheckInvariants().ok());

  // With the option off no sidecars are ever built.
  MemPagedFile file2(4096);
  auto tree_off = BuildTree(data, dim, /*quant=*/false, &file2);
  ASSERT_TRUE(tree_off->SearchRange(center, 0.4, l2).ok());
  EXPECT_EQ(tree_off->CachedQuantPages(), 0u);
}

// --- accounting ------------------------------------------------------------

TEST(QuantAccounting, FilterCountersAreConsistent) {
  if (kernels::BestSupportedTier() == kernels::SimdTier::kScalar) {
    GTEST_SKIP() << "sidecar filtering requires a SIMD tier";
  }
  ScopedTier forced(kernels::BestSupportedTier());
  const uint32_t dim = 12;
  Rng rng(414);
  Dataset data = GenFourier(2000, dim, rng);
  MemPagedFile file(4096);
  auto tree = BuildTree(data, dim, /*quant=*/true, &file);

  L2Metric l2;
  std::vector<float> center(dim, 0.5f);
  tree->pool().ResetStats();
  ASSERT_TRUE(tree->SearchRange(center, 0.3, l2).ok());
  IoStats s = tree->pool().StatsSnapshot();
  EXPECT_GT(s.scan_points, 0u);
  // Every filtered point was either refined or pruned; unfiltered scans
  // contribute to scan_points only. Hence refined + pruned <= scanned.
  EXPECT_LE(s.quant_refined + s.quant_pruned, s.scan_points);
  EXPECT_GT(s.quant_refined + s.quant_pruned, 0u) << "filter never engaged";

  // k-NN: the heap-not-full warm-up pages are unfiltered, the rest filter.
  tree->pool().ResetStats();
  ASSERT_TRUE(tree->SearchKnn(center, 10, l2).ok());
  s = tree->pool().StatsSnapshot();
  EXPECT_GT(s.scan_points, 0u);
  EXPECT_LE(s.quant_refined + s.quant_pruned, s.scan_points);

  // With the option off, no quant counters move.
  MemPagedFile file2(4096);
  auto off = BuildTree(data, dim, /*quant=*/false, &file2);
  off->pool().ResetStats();
  ASSERT_TRUE(off->SearchRange(center, 0.3, l2).ok());
  s = off->pool().StatsSnapshot();
  EXPECT_GT(s.scan_points, 0u);
  EXPECT_EQ(s.quant_refined, 0u);
  EXPECT_EQ(s.quant_pruned, 0u);
}

}  // namespace
}  // namespace ht

// Property tests for the per-page 8-bit quantized filter-then-refine path:
//
//  * Soundness: for every metric with a mask kernel, the code lower bound
//    never exceeds the true distance, and at every supported SIMD tier
//    each row survives the mask filter at a bound equal to its own
//    distance, with every mask byte equal to the scalar tier's — including
//    adversarial cases (query equal to a stored point, degenerate and
//    near-degenerate dimensions, duplicated points, coordinates far
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
//  * Kernel edges: every tier's filter prep bit-identical to the reference,
//    masks equal to the scalar tier's at edge dimension and row counts,
//    and a row exactly at the threshold kept.
//  * Accounting: scan_points / quant_refined / quant_pruned in IoStats, the
//    same per-query counters at every SIMD tier, the pool and the
//    IoStatsScope sink charged alike per call and cursor pull, and a
//    search that fails part-way still charging the pages it tested.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/hybrid_tree.h"
#include "core/node.h"
#include "data/generators.h"
#include "data/workload.h"
#include "fault_injecting_file.h"
#include "geometry/kernels/kernels.h"
#include "geometry/kernels/row_ref.h"
#include "geometry/metrics.h"
#include "geometry/quantize.h"
#include "storage/buffer_pool.h"
#include "storage/quant_store.h"

namespace ht {
namespace {

// --- layout pinning --------------------------------------------------------
// The SIMD kernels and sidecar builder assume this exact data-page layout;
// a change here must be a deliberate format revision, not an accident.
static_assert(DataNode::kHeaderBytes == 4);
static_assert(Page::kAlignment == 64);
static_assert(kernels::kTBlock == 8);

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

  // Whole blocks of transposed codes; the lanes past `count` repeat the
  // last row's codes.
  const uint32_t dim = 7;
  constexpr size_t kLanes = kernels::kTBlock;
  for (const size_t count : {1u, 3u, 8u, 13u, 16u, 21u}) {
    const size_t stride = dim + 2;
    std::vector<float> block(count * stride);
    for (size_t i = 0; i < block.size(); ++i) {
      block[i] = static_cast<float>((i * 37) % 101) / 100.0f;
    }
    const auto qp = QuantizedPage::Build(block.data(), stride, count, dim);
    ASSERT_NE(qp, nullptr);
    const quant::PageCodesView v = qp->view();
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.tcodes) % Page::kAlignment, 0u);
    // One block: grid_lo, grid_hi, then the codes at the next boundary.
    EXPECT_EQ(v.grid_hi, v.grid_lo + dim);
    const auto* grid_end = reinterpret_cast<const uint8_t*>(v.grid_hi + dim);
    EXPECT_GE(v.tcodes, grid_end);
    EXPECT_LT(v.tcodes, grid_end + Page::kAlignment);
    EXPECT_EQ(v.count, count);
    EXPECT_EQ(v.blocks, (count + kLanes - 1) / kLanes);
    const auto code = [&](size_t row, uint32_t d) {
      return v.tcodes[((row / kLanes) * dim + d) * kLanes + row % kLanes];
    };
    for (size_t lane = count; lane < v.blocks * kLanes; ++lane) {
      for (uint32_t d = 0; d < dim; ++d) {
        EXPECT_EQ(code(lane, d), code(count - 1, d))
            << "count " << count << " lane " << lane << " dim " << d;
      }
    }
  }
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

/// Raw accumulators of every row of `v` under metric `which` (MakeMetric
/// numbering, which is kernels::Acc's; `wf` holds WeightedL2's float
/// weights): the scalar mask reference (row_ref.h RowCodeTRaw) over the
/// reference prep — the value the mask kernels compare against their
/// threshold.
std::vector<double> RawAccumulators(const quant::PageCodesView& v, int which,
                                    std::span<const float> q,
                                    const float* wf) {
  std::vector<float> prep(3 * v.dim);
  quant::PrepareFilter(q.data(), v.grid_lo, v.grid_hi, v.dim, prep.data());
  const float* a = prep.data();
  const float* b = a + v.dim;
  const float* sc = b + v.dim;
  constexpr size_t kLanes = kernels::kTBlock;
  std::vector<double> raw(v.count);
  for (size_t i = 0; i < v.count; ++i) {
    const uint8_t* tcb = v.tcodes + (i / kLanes) * v.dim * kLanes;
    const size_t lane = i % kLanes;
    switch (which) {
      case kernels::kSum:
        raw[i] = kernels::detail::RowCodeTRaw<kernels::kSum>(a, b, sc, wf,
                                                             v.dim, tcb, lane);
        break;
      case kernels::kSumSq:
        raw[i] = kernels::detail::RowCodeTRaw<kernels::kSumSq>(
            a, b, sc, wf, v.dim, tcb, lane);
        break;
      case kernels::kMax:
        raw[i] = kernels::detail::RowCodeTRaw<kernels::kMax>(a, b, sc, wf,
                                                             v.dim, tcb, lane);
        break;
      default:
        raw[i] = kernels::detail::RowCodeTRaw<kernels::kWeightedSumSq>(
            a, b, sc, wf, v.dim, tcb, lane);
        break;
    }
  }
  return raw;
}

/// WeightedL2's weights as the mask kernel takes them.
std::vector<float> FloatWeights(const DistanceMetric& metric, uint32_t dim) {
  const auto* wl2 = dynamic_cast<const WeightedL2Metric*>(&metric);
  if (wl2 == nullptr) return {};
  return std::vector<float>(wl2->weights().begin(),
                            wl2->weights().begin() + dim);
}

/// Sound code lower bounds of every row of `qp` under metric `which`
/// (MakeMetric numbering): the raw accumulator times (1 - kLbSlack), after
/// a sqrt for the L2 family — the `lb <= bound` rule the mask filter
/// implements.
std::vector<double> CodeLowerBounds(const QuantizedPage& qp,
                                    const DistanceMetric& metric, int which,
                                    std::span<const float> q) {
  const quant::PageCodesView v = qp.view();
  const std::vector<float> wf = FloatWeights(metric, v.dim);
  std::vector<double> lb = RawAccumulators(v, which, q, wf.data());
  const bool squared = which == 1 || which == 3;
  for (double& x : lb) {
    x = (squared ? std::sqrt(x) : x) * (1.0 - quant::kLbSlack);
  }
  return lb;
}

/// Runs tier `table`'s mask kernel for metric `which` directly: masks in
/// `masks` (padding bits as the kernel leaves them), prep in `prep`.
void TierMasks(const kernels::KernelTable& table, int which,
               std::span<const float> q, const float* wf,
               const quant::PageCodesView& v, double threshold, float* prep,
               uint8_t* masks) {
  table.ctm[which](q.data(), wf, v.grid_lo, v.grid_hi, v.dim, v.tcodes,
                   v.blocks, threshold, prep, masks);
}

bool MaskBit(const std::vector<uint8_t>& masks, size_t row) {
  return ((masks[row / kernels::kTBlock] >> (row % kernels::kTBlock)) & 1) !=
         0;
}

/// True when every survivor bit at and above `count` is clear.
bool PaddingBitsClear(const std::vector<uint8_t>& masks, size_t count) {
  for (size_t i = count; i < masks.size() * kernels::kTBlock; ++i) {
    if (MaskBit(masks, i)) return false;
  }
  return true;
}

/// For every row and metric: the code lower bound never exceeds the true
/// distance, and at every supported tier the row survives the mask filter
/// at bound = its own distance, with the padding bits clear and every mask
/// byte equal to the scalar tier's.
void CheckSound(const TestBlock& b, const std::vector<float>& query) {
  const auto qp = QuantizedPage::Build(b.block(), b.stride(), b.count, b.dim);
  ASSERT_NE(qp, nullptr);
  quant::FilterScratch scratch;
  const size_t nmask = qp->view().blocks;
  for (int m = 0; m < 4; ++m) {
    auto metric = MakeMetric(m, b.dim);
    const std::vector<double> lb = CodeLowerBounds(*qp, *metric, m, query);
    std::vector<double> exact(b.count);
    for (size_t i = 0; i < b.count; ++i) {
      const std::span<const float> row(b.data.data() + i * b.stride(), b.dim);
      exact[i] = metric->Distance(query, row);
      ASSERT_LE(lb[i], exact[i])
          << "metric " << metric->Name() << " row " << i;
      ASSERT_GE(lb[i], 0.0);
      ASSERT_FALSE(std::isnan(lb[i]));
    }
    // Scalar-tier masks at each row's own distance: the reference bytes.
    std::vector<std::vector<uint8_t>> ref(b.count);
    for (const kernels::SimdTier tier : SupportedTiers()) {
      ScopedTier forced(tier);
      for (size_t i = 0; i < b.count; ++i) {
        std::vector<uint8_t> masks(nmask, 0xA5);
        ASSERT_TRUE(metric->CodeFilterMasks(query, qp->view(), exact[i],
                                            &scratch, masks.data()));
        const std::string where = "metric " + metric->Name() + " tier " +
                                  kernels::TierName(tier) + " row " +
                                  std::to_string(i);
        ASSERT_TRUE(MaskBit(masks, i)) << where << ": pruned at its distance";
        ASSERT_TRUE(PaddingBitsClear(masks, b.count)) << where;
        if (tier == kernels::SimdTier::kScalar) {
          ref[i] = masks;
        } else {
          ASSERT_EQ(masks, ref[i]) << where;
        }
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
/// accepts has its codes inside the BoxCodeRange in every dimension;
/// RowsMayBeInBox sets exactly the bits of the rows whose codes lie in that
/// range, leaves the padding bits clear once RunBoxKernel has run, and
/// returns whether some bit is set; and every supported tier's ctm_box
/// writes the reference's masks byte for byte and returns the same.
/// Returns whether the page was ruled out.
bool CheckBoxFilter(const TestBlock& b, const std::vector<float>& lo,
                    const std::vector<float>& hi) {
  const auto qp = QuantizedPage::Build(b.block(), b.stride(), b.count, b.dim);
  const quant::PageCodesView v = qp->view();
  const Box box = Box::FromBounds(lo, hi);
  const uint32_t dim = b.dim;
  std::vector<uint8_t> clo(dim), chi(dim);
  const float* l = lo.data();
  const float* h = hi.data();
  uint8_t* cl = clo.data();
  uint8_t* ch = chi.data();
  const bool ok = quant::BoxCodeRange(l, h, v.grid_lo, v.grid_hi, dim, cl, ch);
  constexpr size_t kLanes = kernels::kTBlock;
  std::vector<uint8_t> want(v.blocks, 0);
  for (size_t i = 0; i < b.count; ++i) {
    const uint8_t* tcb = v.tcodes + (i / kLanes) * dim * kLanes + i % kLanes;
    bool in_range = ok;
    for (uint32_t d = 0; d < b.dim && in_range; ++d) {
      const uint8_t c = tcb[d * kLanes];
      in_range = c >= clo[d] && c <= chi[d];
    }
    if (in_range) want[i / kLanes] |= static_cast<uint8_t>(1u << (i % kLanes));
    const std::span<const float> row(b.data.data() + i * b.stride(), b.dim);
    if (box.ContainsPoint(row)) {
      EXPECT_TRUE(in_range) << "row " << i << " in " << box.ToString();
    }
  }
  const bool any = std::any_of(want.begin(), want.end(),
                               [](uint8_t m) { return m != 0; });
  const std::string where = "dim " + std::to_string(dim) + " count " +
                            std::to_string(b.count) + " box " +
                            box.ToString();
  // Mask bytes the kernel did not write read as 0x5a, range bytes as 0xa5.
  quant::FilterScratch scratch;
  std::vector<uint8_t> ref(v.blocks, 0x5a);
  EXPECT_EQ(quant::RunBoxKernel(&quant::RowsMayBeInBox, v, l, h, &scratch,
                                ref.data()),
            any)
      << where;
  EXPECT_EQ(ref, want) << where;
  for (const kernels::SimdTier tier : SupportedTiers()) {
    quant::FilterScratch poisoned;
    poisoned.range.assign(2 * dim * kLanes, 0xa5);
    std::vector<uint8_t> masks(v.blocks, 0x5a);
    EXPECT_EQ(quant::RunBoxKernel(kernels::TableForTier(tier).ctm_box, v, l,
                                  h, &poisoned, masks.data()),
              any)
        << kernels::TierName(tier) << ", " << where;
    EXPECT_EQ(masks, ref) << kernels::TierName(tier) << ", " << where;
  }
  return !any;
}

TEST(QuantBoxFilter, CodeRangeIsSoundOnRandomPagesAndBoxes) {
  const float kInf = std::numeric_limits<float>::infinity();
  Rng rng(7321);
  size_t ruled_out = 0, boxes = 0;
  std::vector<uint32_t> dims(40);
  std::iota(dims.begin(), dims.end(), 1u);
  dims.push_back(64);
  for (const uint32_t dim : dims) {
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
          // Boxes around a stored row (hits) and random ones (mostly not);
          // every fourth box is open below and every fourth open above, so
          // that a dimension group is cut on one side only.
          const double u = rng.NextDouble();
          const float c = q % 2 == 0 ? b.row(anchor)[d] : static_cast<float>(u);
          const float half = static_cast<float>(rng.NextDouble() * 0.4);
          lo[d] = q % 4 == 2 ? -kInf : c - half;
          hi[d] = q % 4 == 3 ? kInf : c + half;
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
    const auto qp = QuantizedPage::Build(b.block(), b.stride(), count, dim);
    const std::vector<float> glo(qp->view().grid_lo, qp->view().grid_lo + dim);
    const std::vector<float> ghi(qp->view().grid_hi, qp->view().grid_hi + dim);
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
    // Open on one side: every dimension group is cut on the other only.
    CheckBoxFilter(b, none, row3);
    CheckBoxFilter(b, row3, all);
    CheckBoxFilter(b, glo, row0);
    CheckBoxFilter(b, row0, ghi);
    // A NaN hi on the zero-width dimensions (d % 4 == 0) lifts their
    // range to the last cell; any other hi there keeps it at cell 0.
    std::vector<float> nan_flat_hi = row3;
    for (uint32_t d = 0; d < dim; d += 4) nan_flat_hi[d] = kNaN;
    CheckBoxFilter(b, none, nan_flat_hi);
    CheckBoxFilter(b, glo, nan_flat_hi);
    // Bounds on cell boundaries: k / 256 of the way across the grid.
    for (const int k : {1, 64, 128, 191, 255}) {
      std::vector<float> edge(dim);
      for (uint32_t d = 0; d < dim; ++d) {
        edge[d] = static_cast<float>(glo[d] + (static_cast<double>(ghi[d]) -
                                               glo[d]) * k / 256.0);
      }
      CheckBoxFilter(b, edge, ghi);
      CheckBoxFilter(b, glo, edge);
      CheckBoxFilter(b, edge, edge);
    }
    // Bounds one ulp past the grid rule out every row.
    std::vector<float> above(dim), below_grid(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      above[d] = std::nextafterf(ghi[d], kInf);
      below_grid[d] = std::nextafterf(glo[d], -kInf);
    }
    EXPECT_TRUE(CheckBoxFilter(b, above, all));
    EXPECT_TRUE(CheckBoxFilter(b, none, below_grid));
    // So does a bound beyond the grid in the last dimension only.
    std::vector<float> last_above = glo, last_below = ghi;
    last_above[dim - 1] = above[dim - 1];
    last_below[dim - 1] = below_grid[dim - 1];
    EXPECT_TRUE(CheckBoxFilter(b, last_above, all));
    EXPECT_TRUE(CheckBoxFilter(b, none, last_below));
    EXPECT_FALSE(CheckBoxFilter(b, glo, ghi));
    // Every row equal: the grid is zero-width in every dimension.
    TestBlock flat = MakeBlock(dim, 9);
    for (size_t i = 0; i < flat.count; ++i) {
      for (uint32_t d = 0; d < dim; ++d) flat.row(i)[d] = 0.25f;
    }
    const std::vector<float> at(dim, 0.25f), below(dim, 0.0f);
    EXPECT_FALSE(CheckBoxFilter(flat, at, at));
    EXPECT_TRUE(CheckBoxFilter(flat, below, below));
    EXPECT_FALSE(CheckBoxFilter(flat, below, at));
    EXPECT_FALSE(CheckBoxFilter(flat, at, std::vector<float>(dim, kNaN)));
  }
}

// Signed zeros against a +0.0 grid edge: a -0.0 lo on a grid that starts
// at +0.0 and a -0.0 hi on one that ends at +0.0 do not cut the grid, and
// QuantizeLo gives them the first and the last cell.
TEST(QuantBoxFilter, SignedZeroBoundsOnAZeroGridEdge) {
  for (uint32_t dim : {2u, 9u, 33u}) {
    const size_t count = 13;
    TestBlock b = MakeBlock(dim, count);
    for (size_t i = 0; i < count; ++i) {
      for (uint32_t d = 0; d < dim; ++d) {
        const float u = static_cast<float>(i) / static_cast<float>(count - 1);
        b.row(i)[d] = d % 2 == 0 ? u : u - 1.0f;  // [0, 1] or [-1, 0]
      }
    }
    const auto qp = QuantizedPage::Build(b.block(), b.stride(), count, dim);
    std::vector<float> lo(dim), hi(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      const bool up = d % 2 == 0;
      ASSERT_EQ(std::bit_cast<uint32_t>(up ? qp->view().grid_lo[d]
                                           : qp->view().grid_hi[d]),
                0u)
          << "grid edge of dimension " << d << " is not +0.0";
      lo[d] = up ? -0.0f : -0.5f;
      hi[d] = up ? 0.5f : -0.0f;
    }
    EXPECT_FALSE(CheckBoxFilter(b, lo, hi));
    const std::vector<float> zeros(dim, -0.0f);
    CheckBoxFilter(b, zeros, zeros);
  }
}

// --- fused mask filter -----------------------------------------------------
//
// CodeFilterMasks must agree with the `lb <= bound` rule: every row that
// rule keeps must have its bit set (anything less would be unsound — and
// rows whose TRUE distance is within the bound are a subset of those), and
// a set bit may overshoot the rule only by FilterThreshold's hair of
// upward slack. Every mask byte, the last partial block's included, must
// also be bitwise identical across tiers, with the padding bits clear.
TEST(QuantMask, MasksMatchBoundDecisionsAndTiers) {
  Rng rng(727);
  for (uint32_t dim : {3u, 8u, 16u, 31u}) {
    const size_t count = 61;  // 7 full blocks + a 5-row partial block
    TestBlock b = MakeBlock(dim, count);
    for (size_t i = 0; i < count; ++i) {
      for (uint32_t d = 0; d < dim; ++d) {
        b.row(i)[d] = static_cast<float>(rng.NextDouble());
      }
    }
    const auto qp = QuantizedPage::Build(b.block(), b.stride(), count, dim);
    std::vector<float> query(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      query[d] = static_cast<float>(rng.NextDouble() * 2.0 - 0.5);
    }
    quant::FilterScratch scratch;
    const size_t nmask = qp->view().blocks;
    ASSERT_EQ(nmask, (count + kernels::kTBlock - 1) / kernels::kTBlock);
    for (int m = 0; m < 4; ++m) {
      auto metric = MakeMetric(m, dim);
      const std::vector<double> lb = CodeLowerBounds(*qp, *metric, m, query);
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
          ASSERT_TRUE(metric->CodeFilterMasks(query, qp->view(), bound,
                                              &scratch, ref.data()));
        }
        for (const kernels::SimdTier tier : SupportedTiers()) {
          ScopedTier forced(tier);
          std::vector<uint8_t> masks(nmask, 0x55);
          ASSERT_TRUE(metric->CodeFilterMasks(query, qp->view(), bound,
                                              &scratch, masks.data()));
          for (size_t blk = 0; blk < nmask; ++blk) {
            EXPECT_EQ(ref[blk], masks[blk])
                << "metric " << metric->Name() << " tier "
                << kernels::TierName(tier) << " dim " << dim << " block "
                << blk;
          }
          EXPECT_TRUE(PaddingBitsClear(masks, count))
              << "metric " << metric->Name() << " tier "
              << kernels::TierName(tier) << " dim " << dim;
          for (size_t i = 0; i < count; ++i) {
            const bool bit = MaskBit(masks, i);
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
  const auto qp = QuantizedPage::Build(b.block(), b.stride(), 9, dim);
  quant::FilterScratch scratch;
  uint8_t masks[2];
  EXPECT_FALSE(qf.CodeFilterMasks(q, qp->view(), 1.0, &scratch, masks));
  EXPECT_FALSE(qf.SupportsCodeFilter());
}

/// A page of `count` rows over `dim` dimensions: uniform in [0, 1), or,
/// when `clustered`, each 8-row block packed around its own centre far
/// from the others, so at a tight bound one block dies at its first
/// checkpoint while its neighbour runs on.
TestBlock EdgePage(uint32_t dim, size_t count, bool clustered, Rng& rng) {
  TestBlock b = MakeBlock(dim, count);
  for (size_t i = 0; i < count; ++i) {
    const double centre =
        clustered ? 0.35 * static_cast<double>(i / kernels::kTBlock) : 0.0;
    const double spread = clustered ? 0.05 : 1.0;
    for (uint32_t d = 0; d < dim; ++d) {
      b.row(i)[d] = static_cast<float>(centre + spread * rng.NextDouble());
    }
  }
  return b;
}

// Every mask byte at every tier equals the scalar tier's on the shapes the
// SIMD loops special-case: dimension counts around the 8-wide AVX-512
// prep vector and the 8-dimension checkpoints, and row counts giving 1, 2,
// 3 and 7 blocks, full and partial.
TEST(QuantMask, EdgeShapesMatchTheScalarTierAtEveryTier) {
  Rng rng(4242);
  quant::FilterScratch scratch;
  for (const uint32_t dim : {1u, 7u, 8u, 9u, 16u, 17u, 64u}) {
    for (const size_t count : {1u, 8u, 9u, 16u, 17u, 24u, 56u}) {
      for (const bool clustered : {false, true}) {
        const TestBlock b = EdgePage(dim, count, clustered, rng);
        const auto qp =
            QuantizedPage::Build(b.block(), b.stride(), count, dim);
        ASSERT_NE(qp, nullptr);
        const size_t nmask = qp->view().blocks;
        // Queries on the first and the last row: their own blocks stay
        // alive at every bound while far blocks die.
        for (const size_t anchor : {size_t{0}, count - 1}) {
          const std::span<const float> query(
              b.data.data() + anchor * b.stride(), dim);
          for (int m = 0; m < 4; ++m) {
            auto metric = MakeMetric(m, dim);
            std::vector<double> sorted(count);
            for (size_t i = 0; i < count; ++i) {
              sorted[i] = metric->Distance(
                  query, std::span<const float>(
                             b.data.data() + i * b.stride(), dim));
            }
            std::sort(sorted.begin(), sorted.end());
            for (const double bound : {0.0, sorted[count / 4],
                                       sorted[count / 2], sorted.back(),
                                       1e300}) {
              std::vector<uint8_t> ref(nmask, 0xAA);
              {
                ScopedTier forced(kernels::SimdTier::kScalar);
                ASSERT_TRUE(metric->CodeFilterMasks(query, qp->view(), bound,
                                                    &scratch, ref.data()));
              }
              for (const kernels::SimdTier tier : SupportedTiers()) {
                ScopedTier forced(tier);
                std::vector<uint8_t> masks(nmask, 0x55);
                ASSERT_TRUE(metric->CodeFilterMasks(
                    query, qp->view(), bound, &scratch, masks.data()));
                ASSERT_EQ(masks, ref)
                    << metric->Name() << " tier " << kernels::TierName(tier)
                    << " dim " << dim << " rows " << count << " clustered "
                    << clustered << " anchor " << anchor << " bound "
                    << bound;
              }
            }
          }
        }
      }
    }
  }
}

// Each tier fills the prep itself; its above/below/scale floats must be
// the reference's bit for bit, including on a zero-width grid dimension,
// a one-ulp grid width at a large magnitude, and a query far outside the
// grid, and in the dimension tails the AVX-512 vector prep leaves to the
// reference.
TEST(QuantMask, EveryTiersPrepIsBitIdenticalToTheReference) {
  const float big = 4096.0f;
  const float big_next = std::nextafterf(big, 2.0f * big);
  for (const uint32_t dim : {1u, 7u, 8u, 9u, 16u, 17u, 64u}) {
    Rng rng(500 + dim);
    TestBlock b = MakeBlock(dim, 17);
    for (size_t i = 0; i < b.count; ++i) {
      for (uint32_t d = 0; d < dim; ++d) {
        float v = static_cast<float>(rng.NextDouble());
        if (d % 3 == 0) v = 0.625f;                         // zero width
        if (d % 3 == 1) v = (i % 2 == 0) ? big : big_next;  // one ulp
        b.row(i)[d] = v;
      }
    }
    const auto qp = QuantizedPage::Build(b.block(), b.stride(), b.count, dim);
    ASSERT_NE(qp, nullptr);
    const quant::PageCodesView v = qp->view();
    std::vector<float> far(dim);
    for (uint32_t d = 0; d < dim; ++d) far[d] = d % 2 == 0 ? 1e30f : -3e7f;
    const std::vector<std::vector<float>> queries = {
        std::vector<float>(b.row(3), b.row(3) + dim),
        far,
        std::vector<float>(v.grid_hi, v.grid_hi + dim),
    };
    const std::vector<float> wf(dim, 0.5f);
    for (const auto& q : queries) {
      std::vector<float> ref(3 * dim);
      quant::PrepareFilter(q.data(), v.grid_lo, v.grid_hi, dim, ref.data());
      for (const kernels::SimdTier tier : SupportedTiers()) {
        for (int m = 0; m < 4; ++m) {
          std::vector<float> prep(3 * dim, -1.0f);
          std::vector<uint8_t> masks(v.blocks);
          TierMasks(kernels::TableForTier(tier), m, q, wf.data(), v, 1.0,
                    prep.data(), masks.data());
          for (size_t i = 0; i < prep.size(); ++i) {
            ASSERT_EQ(std::bit_cast<uint32_t>(prep[i]),
                      std::bit_cast<uint32_t>(ref[i]))
                << "tier " << kernels::TierName(tier) << " kernel " << m
                << " dim " << dim << " prep[" << i << "]";
          }
        }
      }
    }
  }
}

// The kernels keep a row whose raw accumulator is exactly the threshold
// (the compare is <=), at every tier, in the first, a middle and the last
// block alike.
TEST(QuantMask, ARowExactlyAtTheThresholdSurvivesAtEveryTier) {
  Rng rng(8080);
  for (const uint32_t dim : {7u, 16u, 17u}) {
    const TestBlock b = EdgePage(dim, 24, /*clustered=*/false, rng);
    const auto qp = QuantizedPage::Build(b.block(), b.stride(), b.count, dim);
    const quant::PageCodesView v = qp->view();
    std::vector<float> q(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      q[d] = static_cast<float>(rng.NextDouble() * 1.4 - 0.2);
    }
    for (int m = 0; m < 4; ++m) {
      const auto metric = MakeMetric(m, dim);
      const std::vector<float> wf = FloatWeights(*metric, dim);
      const std::vector<double> raw = RawAccumulators(v, m, q, wf.data());
      for (const size_t row : {size_t{2}, size_t{9}, size_t{23}}) {
        std::vector<uint8_t> ref;
        for (const kernels::SimdTier tier : SupportedTiers()) {
          std::vector<float> prep(3 * dim);
          std::vector<uint8_t> masks(v.blocks);
          TierMasks(kernels::TableForTier(tier), m, q, wf.data(), v, raw[row],
                    prep.data(), masks.data());
          EXPECT_TRUE(MaskBit(masks, row))
              << metric->Name() << " tier " << kernels::TierName(tier)
              << " dim " << dim << " row " << row;
          if (ref.empty()) ref = masks;
          EXPECT_EQ(masks, ref) << metric->Name() << " tier "
                                << kernels::TierName(tier) << " dim " << dim;
        }
      }
    }
  }
}

// --- stale-sidecar detection ----------------------------------------------

TEST(QuantStoreTest, MatchesDetectsContentChanges) {
  const uint32_t dim = 6;
  Rng rng(31);
  TestBlock b = MakeBlock(dim, 43);  // 5 full blocks + a 3-row partial one
  for (size_t i = 0; i < b.count; ++i) {
    for (uint32_t d = 0; d < dim; ++d) {
      b.row(i)[d] = static_cast<float>(rng.NextDouble());
    }
  }
  const auto qp = QuantizedPage::Build(b.block(), b.stride(), b.count, dim);
  EXPECT_TRUE(qp->Matches(b.block(), b.stride(), b.count, dim));
  // Count / dim mismatches.
  EXPECT_FALSE(qp->Matches(b.block(), b.stride(), b.count - 1, dim));
  EXPECT_FALSE(qp->Matches(b.block(), b.stride(), b.count, dim - 1));
  // A single-coordinate change must be caught (it moves the grid or the
  // point's code), in the last row too, whose codes the padding lanes
  // repeat.
  for (const size_t row : {size_t{17}, b.count - 1}) {
    const float saved = b.row(row)[3];
    b.row(row)[3] = saved < 0.5f ? saved + 0.4f : saved - 0.4f;
    EXPECT_FALSE(qp->Matches(b.block(), b.stride(), b.count, dim)) << row;
    b.row(row)[3] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(qp->Matches(b.block(), b.stride(), b.count, dim)) << row;
    b.row(row)[3] = saved;
    EXPECT_TRUE(qp->Matches(b.block(), b.stride(), b.count, dim)) << row;
  }
  // A flipped bit of the sidecar block itself — one grid float, one code
  // byte — must be caught as well.
  const quant::PageCodesView v = qp->view();
  auto* grid_hi = const_cast<float*>(v.grid_hi);
  const float saved_hi = grid_hi[2];
  grid_hi[2] = std::nextafterf(saved_hi, 2.0f);
  EXPECT_FALSE(qp->Matches(b.block(), b.stride(), b.count, dim));
  grid_hi[2] = saved_hi;
  auto* code = const_cast<uint8_t*>(v.tcodes) + 3 * dim * kernels::kTBlock + 5;
  *code ^= 1;
  EXPECT_FALSE(qp->Matches(b.block(), b.stride(), b.count, dim));
  *code ^= 1;
  EXPECT_TRUE(qp->Matches(b.block(), b.stride(), b.count, dim));
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
      // Box answers must not move either: the box filter reads the
      // sidecars these scans built.
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

// Box search filters every admitted page from its sidecar, resident or
// not; these trees get a pool far smaller than themselves, so the filter
// also meets pages that are not resident.
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
      skipped += on->pool().stats().quant_skipped_pages;
      EXPECT_EQ(Sorted(off->SearchBox(boxes[q]).ValueOrDie()), want)
          << "tier " << kernels::TierName(tier) << ", box " << q;
    }
  }
  if (kernels::BestSupportedTier() != kernels::SimdTier::kScalar) {
    EXPECT_GT(skipped, 0u) << "no box visit was ruled out from a sidecar";
  }
  EXPECT_EQ(off->CachedQuantPages(), 0u);
}

// Box search filters every admitted page before the pin, resident or
// not, and builds a page's sidecar on its first pin. Trees with an
// unbounded pool that have run only box queries (no metric scan built a
// sidecar) answer a second pass with every page resident, and at a SIMD
// tier rule pages out all the same, visiting per query exactly the pages
// the tree without sidecars fetches. At the scalar tier no sidecar is
// built and nothing is ruled out.
TEST(QuantBoxFilter, WarmPoolBoxSearchRulesResidentPagesOut) {
  const uint32_t dim = 16;
  Rng rng(5252);
  Dataset data = GenFourier(3000, dim, rng);
  const double side = CalibrateBoxSide(data, 0.01, 10, rng);
  std::vector<Box> boxes;
  for (const auto& c : MakeQueryCenters(data, 24, rng)) {
    boxes.push_back(MakeBoxQuery(c, side));
  }
  for (const kernels::SimdTier tier : SupportedTiers()) {
    ScopedTier forced(tier);
    MemPagedFile f_on(4096), f_off(4096);
    auto on = BuildTree(data, dim, /*quant=*/true, &f_on);
    auto off = BuildTree(data, dim, /*quant=*/false, &f_off);
    for (int pass = 0; pass < 2; ++pass) {
      uint64_t skipped = 0, pruned = 0;
      for (size_t q = 0; q < boxes.size(); ++q) {
        const std::string where = std::string("tier ") +
                                  kernels::TierName(tier) + ", pass " +
                                  std::to_string(pass) + ", box " +
                                  std::to_string(q);
        const auto want = BruteForceBox(data, boxes[q]);
        on->pool().ResetStats();
        off->pool().ResetStats();
        EXPECT_EQ(Sorted(on->SearchBox(boxes[q]).ValueOrDie()), want) << where;
        EXPECT_EQ(Sorted(off->SearchBox(boxes[q]).ValueOrDie()), want)
            << where;
        const IoStats s_on = on->pool().stats();
        const IoStats s_off = off->pool().stats();
        EXPECT_EQ(s_on.physical_reads, 0u) << where << ": a page not resident";
        EXPECT_EQ(s_on.PagesVisited(), s_off.logical_reads) << where;
        EXPECT_EQ(s_on.scan_points, s_off.scan_points) << where;
        skipped += s_on.quant_skipped_pages;
        pruned += s_on.quant_pruned;
      }
      if (tier == kernels::SimdTier::kScalar) {
        EXPECT_EQ(skipped, 0u);
        EXPECT_EQ(pruned, 0u);
        EXPECT_EQ(on->CachedQuantPages(), 0u);
      } else if (pass == 1) {
        EXPECT_GT(skipped, 0u)
            << kernels::TierName(tier) << ": no resident page ruled out";
        EXPECT_GT(pruned, 0u) << kernels::TierName(tier);
      }
    }
    EXPECT_EQ(off->CachedQuantPages(), 0u);
  }
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
// those rows: k-NN, range and box search filter before the pin. A random
// Insert / InsertBatch / Delete sequence (delete bursts underflow pages,
// so pages are freed and their ids reused) on a small-pool tree checks
// every answer against brute force between mutations; a write path that
// forgot to invalidate a sidecar answers from stale codes and fails here.
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
  EXPECT_GT(tree->pool().stats().frees, 0u) << "no page was freed";
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
  IoStats s = tree->pool().stats();
  EXPECT_GT(s.scan_points, 0u);
  // Every filtered point was either refined or pruned; unfiltered scans
  // contribute to scan_points only. Hence refined + pruned <= scanned.
  EXPECT_LE(s.quant_refined + s.quant_pruned, s.scan_points);
  EXPECT_GT(s.quant_refined + s.quant_pruned, 0u) << "filter never engaged";

  // k-NN: the heap-not-full warm-up pages are unfiltered, the rest filter.
  tree->pool().ResetStats();
  ASSERT_TRUE(tree->SearchKnn(center, 10, l2).ok());
  s = tree->pool().stats();
  EXPECT_GT(s.scan_points, 0u);
  EXPECT_LE(s.quant_refined + s.quant_pruned, s.scan_points);

  // With the option off, no quant counters move.
  MemPagedFile file2(4096);
  auto off = BuildTree(data, dim, /*quant=*/false, &file2);
  off->pool().ResetStats();
  ASSERT_TRUE(off->SearchRange(center, 0.3, l2).ok());
  s = off->pool().stats();
  EXPECT_GT(s.scan_points, 0u);
  EXPECT_EQ(s.quant_refined, 0u);
  EXPECT_EQ(s.quant_pruned, 0u);
}

/// The per-query IoStats counters the filter decisions drive.
struct FilterCounters {
  uint64_t scan_points, quant_refined, quant_pruned, quant_skipped_pages,
      logical_reads;
  bool operator==(const FilterCounters&) const = default;
};

FilterCounters CountersOf(const IoStats& s) {
  return {s.scan_points, s.quant_refined, s.quant_pruned,
          s.quant_skipped_pages, s.logical_reads};
}

// Every mask byte is identical across tiers, so a search makes the same
// filter decisions at AVX2 and AVX-512, and scans, refines, prunes, skips
// and pins the same rows and pages. A 2 KiB page holds at most 28 16-d
// rows, and an insert-built tree leaves its pages partly full, so most
// pages end in a partial block. Each tier reopens the same file with the
// same small pool: both start cold, with no sidecar.
TEST(QuantAccounting, PerQueryCountersMatchAcrossSimdTiers) {
  if (!kernels::TierSupported(kernels::SimdTier::kAvx512)) {
    GTEST_SKIP() << "needs both the AVX2 and the AVX-512 tier";
  }
  const uint32_t dim = 16;
  Rng rng(6161);
  Dataset data = GenFourier(4000, dim, rng);
  MemPagedFile file(2048);
  {
    auto tree = BuildTree(data, dim, /*quant=*/true, &file);
    ASSERT_TRUE(tree->Flush().ok());
  }
  const auto centers = MakeQueryCenters(data, 24, rng);
  const double side = CalibrateBoxSide(data, 0.01, 10, rng);
  L2Metric l2;
  L1Metric l1;
  const DistanceMetric* metrics[] = {&l2, &l1};

  std::vector<FilterCounters> first;
  for (const kernels::SimdTier tier :
       {kernels::SimdTier::kAvx2, kernels::SimdTier::kAvx512}) {
    ScopedTier forced(tier);
    auto tree = HybridTree::Open(&file, /*buffer_pool_pages=*/16).ValueOrDie();
    std::vector<FilterCounters> got;
    const auto record = [&] {
      got.push_back(CountersOf(tree->pool().stats()));
      tree->pool().ResetStats();
    };
    tree->pool().ResetStats();
    for (const auto& c : centers) {
      for (const DistanceMetric* metric : metrics) {
        ASSERT_TRUE(tree->SearchRange(c, 0.15, *metric).ok());
        record();
        ASSERT_TRUE(tree->SearchKnn(c, 10, *metric).ok());
        record();
        KnnCursorOptions opts;
        opts.limit = 10;
        auto cursor = tree->OpenKnnCursor(c, *metric, opts);
        for (size_t i = 0; i < opts.limit; ++i) {
          auto next = cursor.Next();
          ASSERT_TRUE(next.ok());
          ASSERT_TRUE(next.ValueOrDie().has_value());
        }
        record();
      }
      ASSERT_TRUE(tree->SearchBox(MakeBoxQuery(c, side)).ok());
      record();
    }
    if (first.empty()) {
      first = std::move(got);
      continue;
    }
    ASSERT_EQ(got.size(), first.size());
    for (size_t q = 0; q < got.size(); ++q) {
      EXPECT_TRUE(got[q] == first[q])
          << "query " << q << " at " << kernels::TierName(tier)
          << ": scan_points " << got[q].scan_points << " vs "
          << first[q].scan_points << ", refined " << got[q].quant_refined
          << " vs " << first[q].quant_refined << ", pruned "
          << got[q].quant_pruned << " vs " << first[q].quant_pruned
          << ", skipped " << got[q].quant_skipped_pages << " vs "
          << first[q].quant_skipped_pages << ", logical reads "
          << got[q].logical_reads << " vs " << first[q].logical_reads;
    }
  }
  // The filter engaged and ruled pages out before the pin.
  uint64_t pruned = 0, skipped = 0;
  for (const FilterCounters& c : first) {
    pruned += c.quant_pruned;
    skipped += c.quant_skipped_pages;
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(skipped, 0u);
}

/// Expects every scalar counter of two IoStats to be equal.
void ExpectSameCounters(const IoStats& a, const IoStats& b,
                        const std::string& where) {
#define HT_EXPECT_SAME_COUNTER(name) \
  EXPECT_EQ(a.name, b.name) << where << ": " #name;
  HT_IO_STATS_COUNTERS(HT_EXPECT_SAME_COUNTER)
#undef HT_EXPECT_SAME_COUNTER
}

/// Runs `search` under an IoStatsScope and returns the pool's stats delta,
/// after checking that the sink saw exactly the same counts.
template <typename Search>
IoStats Charged(const HybridTree& tree, const std::string& where,
                const Search& search) {
  const IoStats before = tree.pool().stats();
  IoStats sink;
  {
    IoStatsScope scope(&sink);
    search();
  }
  const IoStats delta = tree.pool().stats().Delta(before);
  ExpectSameCounters(delta, sink, where);
  return delta;
}

// Scan counters are tallied per search and charged when the call or the
// cursor pull returns. After each batch k-NN, range and box call and each
// cursor pull the pool's delta equals the IoStatsScope sink's, and the
// per-call figures of merit hold: the pages a call visits and the points
// it scans equal what the same call costs a tree without sidecars (same
// data, same structure, every page fetched), and a range scan filters
// every row it scans.
TEST(QuantAccounting, EachCallAndPullChargesThePoolAndItsSinkAlike) {
  if (kernels::BestSupportedTier() == kernels::SimdTier::kScalar) {
    GTEST_SKIP() << "sidecar filtering requires a SIMD tier";
  }
  ScopedTier forced(kernels::BestSupportedTier());
  const uint32_t dim = 16;
  Rng rng(2121);
  Dataset data = GenFourier(3000, dim, rng);
  MemPagedFile f_on(2048), f_off(2048);
  // A pool far smaller than the tree, so the searches also meet pages
  // that are not resident.
  auto on = BuildTree(data, dim, /*quant=*/true, &f_on, /*pool_pages=*/24);
  auto off = BuildTree(data, dim, /*quant=*/false, &f_off, /*pool_pages=*/24);
  const auto centers = MakeQueryCenters(data, 12, rng);
  const double side = CalibrateBoxSide(data, 0.01, 10, rng);
  L2Metric l2;
  L1Metric l1;
  const DistanceMetric* metrics[] = {&l2, &l1};
  SearchScratch s_on, s_off;
  std::vector<uint64_t> ids;
  std::vector<std::pair<double, uint64_t>> nn;
  uint64_t skipped = 0;
  const auto same_visits = [&](const IoStats& with, const IoStats& without,
                               const std::string& where) {
    EXPECT_EQ(with.PagesVisited(), without.logical_reads) << where;
    EXPECT_EQ(with.scan_points, without.scan_points) << where;
    EXPECT_LE(with.quant_refined + with.quant_pruned, with.scan_points)
        << where;
    skipped += with.quant_skipped_pages;
  };
  for (size_t q = 0; q < centers.size(); ++q) {
    const auto& c = centers[q];
    for (const DistanceMetric* metric : metrics) {
      const std::string where = metric->Name() + " query " + std::to_string(q);
      const IoStats range = Charged(*on, "range, " + where, [&] {
        ASSERT_TRUE(on->SearchRangeInto(c, 0.15, *metric, &s_on, &ids).ok());
      });
      const IoStats range_off = Charged(*off, "range, " + where, [&] {
        ASSERT_TRUE(off->SearchRangeInto(c, 0.15, *metric, &s_off, &ids).ok());
      });
      same_visits(range, range_off, "range, " + where);
      EXPECT_EQ(range.scan_points, range.quant_refined + range.quant_pruned)
          << "range, " << where;

      const IoStats knn = Charged(*on, "k-NN, " + where, [&] {
        ASSERT_TRUE(on->SearchKnnInto(c, 10, *metric, &s_on, &nn).ok());
      });
      const IoStats knn_off = Charged(*off, "k-NN, " + where, [&] {
        ASSERT_TRUE(off->SearchKnnInto(c, 10, *metric, &s_off, &nn).ok());
      });
      same_visits(knn, knn_off, "k-NN, " + where);

      KnnCursorOptions opts;
      opts.limit = 10;
      auto cur_on = on->OpenKnnCursor(c, *metric, opts);
      auto cur_off = off->OpenKnnCursor(c, *metric, opts);
      for (size_t pull = 0; pull < opts.limit; ++pull) {
        const std::string at = "cursor pull " + std::to_string(pull) + ", " +
                               where;
        const IoStats p_on = Charged(*on, at, [&] {
          auto next = cur_on.Next();
          ASSERT_TRUE(next.ok());
          ASSERT_TRUE(next.ValueOrDie().has_value());
        });
        const IoStats p_off = Charged(*off, at, [&] {
          ASSERT_TRUE(cur_off.Next().ok());
        });
        same_visits(p_on, p_off, at);
      }
    }
    const Box box = MakeBoxQuery(c, side);
    const std::string where = "box, query " + std::to_string(q);
    const IoStats b_on = Charged(*on, where, [&] {
      ASSERT_TRUE(on->SearchBoxInto(box, &s_on, &ids).ok());
    });
    const IoStats b_off = Charged(*off, where, [&] {
      ASSERT_TRUE(off->SearchBoxInto(box, &s_off, &ids).ok());
    });
    same_visits(b_on, b_off, where);
  }
  EXPECT_GT(skipped, 0u) << "no page was ruled out from its sidecar";
}

// A search whose page fetch fails part-way returns the error, and the
// pages it tested before the failure are still charged — to the pool and
// to the sink alike — rather than lost or left over for the scratch's
// next search.
TEST(QuantAccounting, AFailedSearchChargesThePagesItTested) {
  if (kernels::BestSupportedTier() == kernels::SimdTier::kScalar) {
    GTEST_SKIP() << "sidecar filtering requires a SIMD tier";
  }
  ScopedTier forced(kernels::BestSupportedTier());
  const uint32_t dim = 16;
  Rng rng(3434);
  Dataset data = GenFourier(2000, dim, rng);
  MemPagedFile base(2048);
  FaultInjectingPagedFile file(&base);
  HybridTreeOptions o;
  o.dim = dim;
  o.page_size = file.page_size();
  o.buffer_pool_pages = 16;
  auto tree = HybridTree::Create(o, &file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree->Insert(data.Row(i), i).ok());
  }
  L2Metric l2;
  const std::vector<float> c(data.Row(7).begin(), data.Row(7).end());
  SearchScratch scratch;
  std::vector<uint64_t> ids;
  const auto range = [&] {
    return tree->SearchRangeInto(c, 0.2, l2, &scratch, &ids);
  };
  ASSERT_TRUE(range().ok());  // builds the sidecars the search tests
  const auto cold = [&](const std::string& where) {
    EXPECT_TRUE(tree->pool().EvictAll().ok()) << where;
  };
  cold("reference");
  const IoStats full =
      Charged(*tree, "reference", [&] { ASSERT_TRUE(range().ok()); });
  ASSERT_GT(full.scan_points, 0u);

  bool charged_a_failure = false;
  for (uint64_t budget = 0; budget < 256; ++budget) {
    const std::string where = "read budget " + std::to_string(budget);
    cold(where);
    file.SetReadBudget(budget);
    Status st;
    const IoStats got = Charged(*tree, where, [&] { st = range(); });
    file.DisableFaults();
    EXPECT_LE(got.scan_points, full.scan_points) << where;
    EXPECT_LE(got.quant_skipped_pages, full.quant_skipped_pages) << where;
    if (st.ok()) {
      EXPECT_EQ(got.scan_points, full.scan_points) << where;
      EXPECT_EQ(got.quant_skipped_pages, full.quant_skipped_pages) << where;
      break;
    }
    EXPECT_TRUE(st.IsIOError()) << where << ": " << st.ToString();
    if (got.scan_points > 0) charged_a_failure = true;
  }
  EXPECT_TRUE(charged_a_failure) << "no failed search had tested a page";
  // Nothing was left in the scratch's tally: the next search charges
  // exactly its own pages.
  cold("after the faults");
  const IoStats again =
      Charged(*tree, "after the faults", [&] { ASSERT_TRUE(range().ok()); });
  ExpectSameCounters(again, full, "after the faults vs reference");
}

}  // namespace
}  // namespace ht

// Copyright 2026 The HybridTree Authors.
// Scalar kernel tier: the reference implementation every other tier must
// match bit-for-bit, instantiated from the row_ref.h templates. GCC/Clang
// auto-vectorize the inter-checkpoint blocks but may not reassociate the
// sequential double accumulation, which is exactly the property the
// bit-identity contract pins. This file also holds the one compiled copy
// of the scalar helpers the SIMD tiers call (kernels.h: no weak symbols in
// the SIMD objects).

#include "geometry/kernels/row_ref.h"
#include "geometry/kernels/tables.h"
#include "geometry/quantize.h"

namespace ht {

namespace kernels {

double AbandonSquare(double bound) {
  const double b2 = bound * bound;
  return b2 + 8.0 * std::numeric_limits<double>::epsilon() * b2;
}

namespace {

template <Acc kAcc>
void BatchScalar(const float* q, const double* w, size_t dim,
                 const float* pts, size_t stride, size_t n, double bound,
                 double* out) {
  double limit = bound;
  if constexpr (IsSquared(kAcc)) limit = AbandonSquare(bound);
  for (size_t i = 0; i < n; ++i) {
    out[i] = detail::Row<kAcc>(q, w, dim, pts + i * stride, limit);
  }
}

// The reference prep, then each row's raw accumulator against the
// threshold, one bit per row.
template <Acc kAcc>
void MaskScalar(const float* q, const float* wf, const float* grid_lo,
                const float* grid_hi, size_t dim, const uint8_t* tcodes,
                size_t nblocks, double threshold, float* prep,
                uint8_t* masks) {
  quant::PrepareFilter(q, grid_lo, grid_hi, dim, prep);
  for (size_t b = 0; b < nblocks; ++b) {
    const uint8_t* tcb = tcodes + b * dim * kTBlock;
    uint8_t m = 0;
    for (size_t lane = 0; lane < kTBlock; ++lane) {
      if (detail::RowCodeTRaw<kAcc>(prep, prep + dim, prep + 2 * dim, wf,
                                    dim, tcb, lane) <= threshold) {
        m |= static_cast<uint8_t>(1u << lane);
      }
    }
    masks[b] = m;
  }
}

template <Acc kAcc>
void MinDistScalar(const float* q, size_t dim, const float* lo,
                   const float* hi, size_t stride, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = detail::MinDistRow<kAcc>(q, nullptr, dim, lo + i, hi + i, stride);
  }
}

// Overlap reference: per active box, the BoxIntersectsScalar and
// BoxContainsScalar tests over its strided bounds.
void BoxOverlapScalar(const float* qlo, const float* qhi, size_t dim,
                      const float* lo, const float* hi, size_t stride,
                      size_t n, const uint64_t* active, uint64_t* intersects,
                      uint64_t* contains) {
  for (size_t w = 0; w < (n + 63) / 64; ++w) {
    intersects[w] = 0;
    contains[w] = 0;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bit = uint64_t{1} << (i % 64);
    if ((active[i / 64] & bit) == 0) continue;
    bool disjoint = false;
    bool escapes = false;
    for (size_t d = 0; d < dim && !(disjoint && escapes); ++d) {
      const float l = lo[d * stride + i];
      const float h = hi[d * stride + i];
      if (h < qlo[d] || l > qhi[d]) disjoint = true;
      if (l < qlo[d] || h > qhi[d]) escapes = true;
    }
    if (!disjoint) intersects[i / 64] |= bit;
    if (!escapes) contains[i / 64] |= bit;
  }
}

}  // namespace

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      SimdTier::kScalar,
      {&BatchScalar<kSum>, &BatchScalar<kSumSq>, &BatchScalar<kMax>,
       &BatchScalar<kWeightedSumSq>},
      {&MaskScalar<kSum>, &MaskScalar<kSumSq>, &MaskScalar<kMax>,
       &MaskScalar<kWeightedSumSq>},
      &quant::RowsMayBeInBox,
      {&MinDistScalar<kSum>, &MinDistScalar<kSumSq>, &MinDistScalar<kMax>},
      &BoxOverlapScalar};
  return table;
}

}  // namespace kernels

namespace quant {

void PrepareFilter(const float* q, const float* grid_lo, const float* grid_hi,
                   size_t dim, float* prep) {
  for (size_t d = 0; d < dim; ++d) {
    const double lo = grid_lo[d];
    const double w = (static_cast<double>(grid_hi[d]) - lo) / kSidecarCells;
    const double t = static_cast<double>(q[d]) - lo;
    const double pad = kCellPad * w + kQueryPad * std::fabs(t);
    prep[d] = static_cast<float>(t + pad);
    prep[dim + d] = static_cast<float>(t - w - pad);
    prep[2 * dim + d] = static_cast<float>(w);
  }
}

}  // namespace quant

}  // namespace ht

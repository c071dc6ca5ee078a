// Copyright 2026 The HybridTree Authors.
// Scalar kernel tier: the reference implementation every other tier must
// match bit-for-bit. The distance kernels are the loops the metrics' batch
// overrides contained before dispatch existed; GCC/Clang auto-vectorize the
// inter-checkpoint blocks but may not reassociate the sequential double
// accumulation, which is exactly the property the bit-identity contract
// pins.

#include "geometry/kernels/row_ref.h"
#include "geometry/kernels/tables.h"
#include "geometry/quantize.h"

namespace ht::kernels {
namespace {

void L1Scalar(const float* q, size_t dim, const float* pts, size_t stride,
              size_t n, double bound, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = detail::RowL1(q, dim, pts + i * stride, bound);
  }
}

void L2Scalar(const float* q, size_t dim, const float* pts, size_t stride,
              size_t n, double bound, double* out) {
  const double b2 = AbandonSquare(bound);
  for (size_t i = 0; i < n; ++i) {
    out[i] = detail::RowL2(q, dim, pts + i * stride, b2);
  }
}

void LInfScalar(const float* q, size_t dim, const float* pts, size_t stride,
                size_t n, double bound, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = detail::RowLInf(q, dim, pts + i * stride, bound);
  }
}

void WL2Scalar(const float* q, const double* w, size_t dim, const float* pts,
               size_t stride, size_t n, double bound, double* out) {
  const double b2 = AbandonSquare(bound);
  for (size_t i = 0; i < n; ++i) {
    out[i] = detail::RowWL2(q, w, dim, pts + i * stride, b2);
  }
}

// Mask kernels: the reference prep, then each row's raw accumulator
// (row_ref.h RowCodeTRaw*) against the threshold, one bit per row.
template <typename RowRaw>
void MaskRows(const float* q, const float* grid_lo, const float* grid_hi,
              size_t dim, const uint8_t* tcodes, size_t nblocks,
              double threshold, float* prep, uint8_t* masks,
              const RowRaw& row_raw) {
  quant::PrepareFilter(q, grid_lo, grid_hi, 0, dim, prep);
  for (size_t b = 0; b < nblocks; ++b) {
    const uint8_t* tcb = tcodes + b * dim * kTBlock;
    uint8_t m = 0;
    for (size_t lane = 0; lane < kTBlock; ++lane) {
      if (row_raw(prep, prep + dim, prep + 2 * dim, tcb, lane) <= threshold) {
        m |= static_cast<uint8_t>(1u << lane);
      }
    }
    masks[b] = m;
  }
}

void CTML1Scalar(const float* q, const float* grid_lo, const float* grid_hi,
                 size_t dim, const uint8_t* tcodes, size_t nblocks,
                 double threshold, float* prep, uint8_t* masks) {
  MaskRows(q, grid_lo, grid_hi, dim, tcodes, nblocks, threshold, prep, masks,
           [dim](const float* a, const float* b, const float* s,
                 const uint8_t* tcb, size_t lane) {
             return detail::RowCodeTRawL1(a, b, s, dim, tcb, lane);
           });
}

void CTML2Scalar(const float* q, const float* grid_lo, const float* grid_hi,
                 size_t dim, const uint8_t* tcodes, size_t nblocks,
                 double threshold, float* prep, uint8_t* masks) {
  MaskRows(q, grid_lo, grid_hi, dim, tcodes, nblocks, threshold, prep, masks,
           [dim](const float* a, const float* b, const float* s,
                 const uint8_t* tcb, size_t lane) {
             return detail::RowCodeTRawL2(a, b, s, dim, tcb, lane);
           });
}

void CTMLInfScalar(const float* q, const float* grid_lo, const float* grid_hi,
                   size_t dim, const uint8_t* tcodes, size_t nblocks,
                   double threshold, float* prep, uint8_t* masks) {
  MaskRows(q, grid_lo, grid_hi, dim, tcodes, nblocks, threshold, prep, masks,
           [dim](const float* a, const float* b, const float* s,
                 const uint8_t* tcb, size_t lane) {
             return detail::RowCodeTRawLInf(a, b, s, dim, tcb, lane);
           });
}

void CTMWL2Scalar(const float* q, const float* wf, const float* grid_lo,
                  const float* grid_hi, size_t dim, const uint8_t* tcodes,
                  size_t nblocks, double threshold, float* prep,
                  uint8_t* masks) {
  MaskRows(q, grid_lo, grid_hi, dim, tcodes, nblocks, threshold, prep, masks,
           [dim, wf](const float* a, const float* b, const float* s,
                     const uint8_t* tcb, size_t lane) {
             return detail::RowCodeTRawWL2(a, b, s, wf, dim, tcb, lane);
           });
}

// Batch MINDIST over a dimension-major box set: the reference every SIMD
// tier replays per lane. Dimension-outer order keeps each box's sum in
// dimension order (the loop over boxes may vectorize; nothing
// reassociates), exactly MinDistToBox's accumulation.
enum class BoxAcc { kSum, kSumSq, kMax };

template <BoxAcc kAcc>
void MinDistScalar(const float* q, size_t dim, const float* lo,
                   const float* hi, size_t stride, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double qd = q[d];
    const float* l = lo + d * stride;
    const float* h = hi + d * stride;
    for (size_t i = 0; i < n; ++i) {
      const double g = AxisGap(qd, l[i], h[i]);
      if constexpr (kAcc == BoxAcc::kSum) {
        out[i] += g;
      } else if constexpr (kAcc == BoxAcc::kSumSq) {
        out[i] += g * g;
      } else {
        out[i] = g > out[i] ? g : out[i];
      }
    }
  }
  if constexpr (kAcc == BoxAcc::kSumSq) {
    for (size_t i = 0; i < n; ++i) out[i] = std::sqrt(out[i]);
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
      SimdTier::kScalar, &L1Scalar,      &L2Scalar,       &LInfScalar,
      &WL2Scalar,        &CTML1Scalar,   &CTML2Scalar,    &CTMLInfScalar,
      &CTMWL2Scalar,     &quant::RowsMayBeInBox,
      &MinDistScalar<BoxAcc::kSum>,   &MinDistScalar<BoxAcc::kSumSq>,
      &MinDistScalar<BoxAcc::kMax>,   &BoxOverlapScalar};
  return table;
}

}  // namespace ht::kernels

// Copyright 2026 The HybridTree Authors.
// Conservative scalar quantization shared by ELS (§3.4) and the per-page
// 8-bit vector sidecars.
//
// One rule, used everywhere: round so the bound is never too tight. ELS
// rounds box boundaries outward (lo down, hi up) onto a 2^bits grid; the
// sidecar filter pads the decoded cell interval outward before measuring
// the gap to the query. Both make pruning decisions conservative, so a
// quantized bound can never drop a true result.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geometry/kernels/kernels.h"

namespace ht::quant {

/// Grid cell of `v` on the 2^bits grid over [lo, hi], rounding DOWN — the
/// conservative choice for a lower boundary (and the cell *containing* v,
/// used by the sidecar codes). Degenerate intervals (hi <= lo) map to cell
/// 0. Result is in [0, 2^bits - 1].
inline uint32_t QuantizeLo(float v, float lo, float hi, uint32_t bits) {
  const uint32_t cells = 1u << bits;
  if (hi <= lo) return 0;
  double frac = (static_cast<double>(v) - lo) / (static_cast<double>(hi) - lo);
  double cell = std::floor(frac * cells);
  if (cell < 0) cell = 0;
  if (cell > cells - 1) cell = cells - 1;
  return static_cast<uint32_t>(cell);
}

/// Grid cell of `v`, rounding UP — conservative for an upper boundary.
/// Degenerate intervals map to cell 2^bits. Result is in [1, 2^bits].
inline uint32_t QuantizeHi(float v, float lo, float hi, uint32_t bits) {
  const uint32_t cells = 1u << bits;
  if (hi <= lo) return cells;
  double frac = (static_cast<double>(v) - lo) / (static_cast<double>(hi) - lo);
  double cell = std::ceil(frac * cells);
  if (cell < 1) cell = 1;
  if (cell > cells) cell = cells;
  return static_cast<uint32_t>(cell);
}

// --- Per-page 8-bit vector sidecar filter ----------------------------------
//
// A sidecar stores one byte per dimension per point of a data page:
// c_d = QuantizeLo(v_d, lo_d, hi_d, 8) on the page's live bounding region
// [lo_d, hi_d] — ELS's relative encoding applied one level down, to the
// points inside a page. The filter lower-bounds the distance from a query
// q to the original float v using only the codes:
//
//   In exact arithmetic v_d lies in the cell [lo_d + c_d w_d,
//   lo_d + (c_d+1) w_d] with w_d = (hi_d - lo_d)/256 (clamped cells cover
//   their side of the grid). Padding the cell by kCellPad cells on each
//   side absorbs the encoder's floating-point rounding with orders of
//   magnitude to spare, so with t_d = q_d - lo_d the per-dimension gap
//
//     gap_d = max(0, c_d w_d - above_d, below_d - c_d w_d)
//     above_d = t_d + kCellPad w_d + kQueryPad |t_d|
//     below_d = t_d - (1 + kCellPad) w_d - kQueryPad |t_d|
//
//   satisfies gap_d <= |q_d - v_d|, and any monotone metric of per-
//   dimension gaps lower-bounds the true distance.
//
// Error budget (why two pads and a slack, not one epsilon):
//  * kCellPad (2^-10 cells) covers every error proportional to the cell
//    width w_d: the encoder's double-precision rounding (~2^-43 cells) and
//    the float rounding of c_d * scale_d (<= 2^-15 cells).
//  * kQueryPad (2^-20, relative to |t_d|) covers the float rounding of
//    above_d / below_d themselves (<= 2^-23 |t_d|), which is NOT
//    proportional to w_d — on a near-degenerate dimension it would dwarf
//    any cell-relative pad.
//  * kLbSlack (multiplicative, applied to the final bound) covers the
//    remaining errors that are relative to the (already sound) gaps:
//    the gap subtraction's own rounding, squaring, the double-precision
//    accumulation, and the final sqrt.
// Degenerate dimensions (hi_d <= lo_d, all stored values equal lo_d) need
// no special case: codes are 0 and w_d = 0, so the formula above reduces
// to gap_d = max(0, |t_d| - kQueryPad |t_d|) <= |q_d - v_d|. A page with a
// NaN or infinite coordinate gets no sidecar (storage/quant_store.h): its
// grid would not be finite and the gaps would be NaN.
//
// The filter only ever asks "may this row be within the bound?", and the
// fused mask kernels answer it (kernels.h ctm): every lane replays one
// accumulation order at every SIMD tier, so the survivor masks — the only
// output of the filter — are bitwise identical across tiers, and so are
// the refined distances callers emit.

/// Sidecar code precision: one byte per dimension.
inline constexpr uint32_t kSidecarBits = 8;
inline constexpr double kSidecarCells = 256.0;

/// Cell-relative outward pad (in cells) on the decoded interval.
inline constexpr double kCellPad = 0x1p-10;

/// Query-offset-relative outward pad on the prep values.
inline constexpr double kQueryPad = 0x1p-20;

/// Multiplicative slack on the final lower bound: lb *= (1 - kLbSlack).
inline constexpr double kLbSlack = 1e-5;

/// Non-owning view of one page's sidecar: the grid, and the codes of
/// `count` rows block-transposed (kernels.h kTBlock layout:
/// tcodes[(b * dim + d) * kTBlock + lane], 64-byte aligned) over
/// `blocks` = ceil(count / kTBlock) whole blocks whose lanes past `count`
/// repeat the last row.
struct PageCodesView {
  size_t count;          ///< number of points
  uint32_t dim;          ///< feature-space dimensionality
  const float* grid_lo;  ///< page live BR, dim floats
  const float* grid_hi;  ///< page live BR, dim floats
  const uint8_t* tcodes;
  size_t blocks;
};

/// Reusable per-query buffers for the code filter (lives in SearchScratch,
/// so steady-state filtered scans allocate nothing).
struct FilterScratch {
  /// The mask kernels' prep (kernels.h CodeMaskTFn): above, below and
  /// scale, dim floats each, written by every sidecar test.
  std::vector<float> prep;
  /// The box kernels' code range (kernels.h CodeBoxTFn): 2 * dim *
  /// kTBlock bytes, written by every box test (the reference uses its
  /// first 2 * dim).
  std::vector<uint8_t> range;
};

/// The reference prep of one (query, page-grid) pair: above_d, below_d
/// and the cell width w_d of the formula above, rounded to float, into
/// prep[d], prep[dim + d] and prep[2 * dim + d]. O(dim); the kernels then
/// amortize it over every row of the page. Every mask kernel fills `prep`
/// itself (kernels.h CodeMaskTFn): the scalar and AVX2 tiers call this,
/// and the AVX-512 vector prep replays it per lane — the same double
/// operations in the same order, with no FMA — so the floats are
/// bit-identical at every tier. Defined in kernels/scalar.cc, so every
/// tier runs the one copy built without SIMD flags.
void PrepareFilter(const float* q, const float* grid_lo, const float* grid_hi,
                   size_t dim, float* prep);

/// Survivor threshold for the fused mask kernels (kernels.h ctm), which
/// compare each row's RAW accumulator — the value before the final
/// (1 - kLbSlack) multiply, and before the sqrt for the squared metrics —
/// against a single precomputed double. Chosen so that the mask rule keeps
/// every row the `lb <= bound` rule keeps, where lb is the sound lower
/// bound raw * (1 - kLbSlack) (sqrt(raw) * (1 - kLbSlack) for the squared
/// metrics): undoing the slack (and squaring, for L2-like metrics) with a
/// couple of extra rounding steps only needs a hair of upward inflation
/// (1 + 2^-40, orders of magnitude above the few-ulp error of this
/// transform) to stay a sound superset. Over-inclusion merely costs an
/// exact refinement; under-inclusion would drop a true result. Overflow to
/// +infinity on huge bounds keeps every row — also sound.
inline double FilterThreshold(double bound, bool squared) {
  constexpr double kUp = 1.0 + 0x1p-40;
  double t = bound / (1.0 - kLbSlack) * kUp;
  if (squared) t = t * t * kUp;
  return t;
}

/// Clears the survivor bits of the padding lanes (rows count and up of the
/// last block), which a mask kernel sets or clears as a copy of the last
/// row's bit. RunMaskKernel calls it after every kernel.
inline void ClearPaddingBits(const PageCodesView& page, uint8_t* masks) {
  const size_t tail = page.count % kernels::kTBlock;
  if (tail != 0) {
    masks[page.blocks - 1] &= static_cast<uint8_t>((1u << tail) - 1);
  }
}

/// One sidecar test: runs a tier's mask kernel (`kernel`, kernels.h ctm)
/// over `page` for query `q` (and WeightedL2's float weights `wf`)
/// against `threshold`, with the prep in `s`, then clears the padding
/// bits. Returns true, the CodeFilterMasks contract for a metric with a
/// kernel.
inline bool RunMaskKernel(kernels::CodeMaskTFn kernel, const float* q,
                          const float* wf, const PageCodesView& page,
                          double threshold, FilterScratch* s,
                          uint8_t* masks) {
  if (s->prep.size() < 3 * size_t{page.dim}) s->prep.resize(3 * page.dim);
  kernel(q, wf, page.grid_lo, page.grid_hi, page.dim, page.tcodes,
         page.blocks, threshold, s->prep.data(), masks);
  ClearPaddingBits(page, masks);
  return true;
}

// --- Box filter on the sidecar codes ----------------------------------------
//
// A row v lies in the closed box [lo, hi] only if lo_d <= v_d <= hi_d in
// every dimension. QuantizeLo is monotone in v (a correctly rounded
// subtraction and division by a positive width, floor and clamp), and the
// codes were made by this same QuantizeLo, so lo_d <= v_d <= hi_d implies
// QuantizeLo(lo_d) <= c_d <= QuantizeLo(hi_d): a row whose code leaves that
// range in any dimension cannot be in the box. No padding is needed. A
// faster formula than QuantizeLo would have to widen the range by one cell
// on each side; the SIMD box kernels (kernels.h ctm_box) instead replay
// QuantizeLo's operations lane for lane where the box cuts the grid, and
// use its clamped cells elsewhere, so their range is this one. The grid is
// the rows' exact min/max, so a bound beyond the grid rules out every row
// outright; on a zero-width grid dimension (every code 0) that check is
// the whole test. A NaN bound puts no limit on its side, as in
// Box::ContainsPoint; ±inf clamps to the first or last cell. The test
// yields one survivor bit per row, in the mask layout of the metric
// filter above, so a box scan refines only the surviving rows.

/// Fills the code range [code_lo[d], code_hi[d]] a row of a page with grid
/// [grid_lo, grid_hi] must lie in, in every dimension, to be inside the box
/// [lo, hi]. Returns false when no row of the page can lie in the box.
inline bool BoxCodeRange(const float* lo, const float* hi,
                         const float* grid_lo, const float* grid_hi,
                         uint32_t dim, uint8_t* code_lo, uint8_t* code_hi) {
  constexpr uint32_t kLastCell = (1u << kSidecarBits) - 1;
  for (uint32_t d = 0; d < dim; ++d) {
    uint32_t clo = 0;
    uint32_t chi = kLastCell;
    if (!std::isnan(lo[d])) {
      if (lo[d] > grid_hi[d]) return false;
      clo = QuantizeLo(lo[d], grid_lo[d], grid_hi[d], kSidecarBits);
    }
    if (!std::isnan(hi[d])) {
      if (hi[d] < grid_lo[d]) return false;
      chi = QuantizeLo(hi[d], grid_lo[d], grid_hi[d], kSidecarBits);
    }
    if (clo > chi) return false;
    code_lo[d] = static_cast<uint8_t>(clo);
    code_hi[d] = static_cast<uint8_t>(chi);
  }
  return true;
}

/// The scalar reference of the sidecar box test (kernels.h ctm_box), and
/// the scalar tier's entry: writes masks[b] for each of the `nblocks`
/// blocks, bit `lane` set iff row b * kTBlock + lane has its codes inside
/// the BoxCodeRange in every dimension (every mask 0 when the range is
/// empty), and returns true iff some bit is set. A plain loop over the
/// blocks, with the range in range[0, dim) and range[dim, 2 * dim); a
/// block stops at the dimension that leaves it no live row.
inline bool RowsMayBeInBox(const float* lo, const float* hi,
                           const float* grid_lo, const float* grid_hi,
                           size_t dim, const uint8_t* tcodes, size_t nblocks,
                           uint8_t* range, uint8_t* masks) {
  uint8_t* clo = range;
  uint8_t* chi = range + dim;
  if (!BoxCodeRange(lo, hi, grid_lo, grid_hi, static_cast<uint32_t>(dim), clo,
                    chi)) {
    std::fill(masks, masks + nblocks, uint8_t{0});
    return false;
  }
  constexpr size_t kLanes = kernels::kTBlock;
  unsigned any = 0;
  for (size_t b = 0; b < nblocks; ++b) {
    const uint8_t* block = tcodes + b * dim * kLanes;
    unsigned live = (1u << kLanes) - 1;
    for (size_t d = 0; d < dim && live != 0; ++d) {
      for (size_t lane = 0; lane < kLanes; ++lane) {
        const uint8_t c = block[d * kLanes + lane];
        if (c < clo[d] || c > chi[d]) live &= ~(1u << lane);
      }
    }
    masks[b] = static_cast<uint8_t>(live);
    any |= live;
  }
  return any != 0;
}

/// One sidecar box test: runs a tier's box kernel (`kernel`, kernels.h
/// ctm_box) over `page` for the box [lo, hi], with the range buffer in
/// `s`, into `masks` (page.blocks bytes), then clears the padding bits.
/// True when some row of the page may lie in the box. A padding lane
/// repeats the last row, so clearing its bit never changes the verdict.
inline bool RunBoxKernel(kernels::CodeBoxTFn kernel, const PageCodesView& page,
                         const float* lo, const float* hi, FilterScratch* s,
                         uint8_t* masks) {
  const size_t need = 2 * size_t{page.dim} * kernels::kTBlock;
  if (s->range.size() < need) s->range.resize(need);
  const bool any = kernel(lo, hi, page.grid_lo, page.grid_hi, page.dim,
                          page.tcodes, page.blocks, s->range.data(), masks);
  ClearPaddingBits(page, masks);
  return any;
}

}  // namespace ht::quant

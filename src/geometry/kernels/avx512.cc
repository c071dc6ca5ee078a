// Copyright 2026 The HybridTree Authors.
// AVX-512 kernel tier: eight rows per __m512d, one row per double lane,
// with the dead-lane bookkeeping in a __mmask8. Same bit-identity scheme
// as the AVX2 tier (see avx2.cc): per-lane replay of the scalar
// accumulation, separate mul/add (no FMA contraction of intrinsics),
// checkpoints every kAbandonBlock dims, lanes go dead only strictly before
// the final block; one template per family over the accumulation, every
// accumulation Step8 (row_ref.h Step in eight lanes); and, as there, no
// call to an inline function of a header: scalar work goes to scalar.cc,
// dimension tails are masked lanes. Requires avx512f+bw+dq+vl at runtime
// (dispatch.cc checks CPUID); compiled only when the toolchain supports
// the flags.

#ifdef HT_KERNELS_AVX512

#include <immintrin.h>

#include "geometry/kernels/tables.h"
#include "geometry/quantize.h"

namespace ht::kernels {
namespace {

/// Accumulation kAcc's step over eight double lanes (row_ref.h Step): `x`
/// is already a magnitude for kSum and kMax, and w[d] is the weight.
template <Acc kAcc, typename W = double>
inline __m512d Step8(__m512d s, __m512d x, const W* w = nullptr,
                     size_t d = 0) {
  if constexpr (kAcc == kSum) {
    return _mm512_add_pd(s, x);
  } else if constexpr (kAcc == kSumSq) {
    return _mm512_add_pd(s, _mm512_mul_pd(x, x));
  } else if constexpr (kAcc == kMax) {
    return _mm512_max_pd(x, s);  // x > s ? x : s, as the scalar
  } else {
    const __m512d wd = _mm512_set1_pd(static_cast<double>(w[d]));
    return _mm512_add_pd(s, _mm512_mul_pd(_mm512_mul_pd(wd, x), x));
  }
}

/// Element d of eight rows starting at `base` (stride floats apart),
/// widened to double lanes.
inline __m512d Load8(const float* base, size_t stride, size_t d) {
  const float* r = base + d;
  const __m128 lo = _mm_setr_ps(r[0], r[stride], r[2 * stride], r[3 * stride]);
  const __m128 hi = _mm_setr_ps(r[4 * stride], r[5 * stride], r[6 * stride],
                                r[7 * stride]);
  return _mm512_insertf64x4(_mm512_castpd256_pd512(_mm256_cvtps_pd(lo)),
                            _mm256_cvtps_pd(hi), 1);
}

constexpr __mmask8 kAllLanes = 0xff;

template <Acc kAcc>
void BatchAvx512(const float* q, const double* w, size_t dim,
                 const float* pts, size_t stride, size_t n, double bound,
                 double* out) {
  double limit = bound;
  if constexpr (IsSquared(kAcc)) limit = AbandonSquare(bound);
  const __m512d vlimit = _mm512_set1_pd(limit);
  const __m512d vinf = _mm512_set1_pd(kInf);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float* base = pts + i * stride;
    __m512d s = _mm512_setzero_pd();
    __mmask8 dead = 0;
    size_t d = 0;
    while (d < dim) {
      const size_t end = d + kAbandonBlock < dim ? d + kAbandonBlock : dim;
      for (; d < end; ++d) {
        const __m512d qd = _mm512_set1_pd(static_cast<double>(q[d]));
        __m512d x = _mm512_sub_pd(qd, Load8(base, stride, d));
        if constexpr (kAcc == kSum || kAcc == kMax) x = _mm512_abs_pd(x);
        s = Step8<kAcc>(s, x, w, d);
      }
      if (end < dim) {
        dead |= _mm512_cmp_pd_mask(s, vlimit, _CMP_GT_OQ);
        if (dead == kAllLanes) break;
      }
    }
    if (d < dim) {  // every lane abandoned
      s = vinf;
    } else {
      if constexpr (IsSquared(kAcc)) s = _mm512_sqrt_pd(s);
      s = _mm512_mask_blend_pd(dead, s, vinf);
    }
    _mm512_storeu_pd(out + i, s);
  }
  if (i < n) {
    ScalarTable().batch[kAcc](q, w, dim, pts + i * stride, stride, n - i,
                              bound, out + i);
  }
}

// --- Fused mask-filter kernels (kernels.h ctm) -----------------------------
//
// The prep runs eight dimensions per __m512d: quant::PrepareFilter's
// double operations, lane for lane, rounded to float by the same
// conversion, with the dimension tail in masked lanes. Then one __m512d
// covers a whole 8-row block: each dimension is one 8-byte code load and
// widen, and one _mm512_cmp_pd_mask against the precomputed threshold
// collapses the block straight to its survivor byte. Gap math and
// accumulation replay RowCodeTRaw's order exactly (kMax in float, which
// widening keeps exact); IEEE <= treats -0.0 == +0.0, so no
// canonicalization is needed and masks stay bitwise identical across
// tiers.
//
// A block is abandoned once EVERY lane's accumulator exceeds the
// threshold: the sums are monotone non-decreasing (each step adds a
// non-negative term, and fl(s + x) >= s for x >= 0), so a dead block stays
// dead and writing 0 early is bitwise what full accumulation would
// produce. With pages spatially clustered, most blocks of a 99%-pruned
// scan die within the first checkpoint.

/// The first min(n, 8) of eight lanes.
inline __mmask8 FirstLanes8(size_t n) {
  return n >= 8 ? __mmask8{0xff} : static_cast<__mmask8>((1u << n) - 1);
}

/// quant::PrepareFilter over [0, dim), eight dimensions per __m512d; the
/// lanes past `dim` read 0 and are not stored.
void PrepAvx512(const float* q, const float* grid_lo, const float* grid_hi,
                size_t dim, float* prep) {
  const __m512d cells = _mm512_set1_pd(quant::kSidecarCells);
  const __m512d cell_pad = _mm512_set1_pd(quant::kCellPad);
  const __m512d query_pad = _mm512_set1_pd(quant::kQueryPad);
  for (size_t d = 0; d < dim; d += 8) {
    const __mmask8 k = FirstLanes8(dim - d);
    const __m512d lo = _mm512_cvtps_pd(_mm256_maskz_loadu_ps(k, grid_lo + d));
    const __m512d hi = _mm512_cvtps_pd(_mm256_maskz_loadu_ps(k, grid_hi + d));
    const __m512d w = _mm512_div_pd(_mm512_sub_pd(hi, lo), cells);
    const __m512d t =
        _mm512_sub_pd(_mm512_cvtps_pd(_mm256_maskz_loadu_ps(k, q + d)), lo);
    const __m512d pad = _mm512_add_pd(
        _mm512_mul_pd(cell_pad, w), _mm512_mul_pd(query_pad, _mm512_abs_pd(t)));
    _mm256_mask_storeu_ps(prep + d, k, _mm512_cvtpd_ps(_mm512_add_pd(t, pad)));
    _mm256_mask_storeu_ps(
        prep + dim + d, k,
        _mm512_cvtpd_ps(_mm512_sub_pd(_mm512_sub_pd(t, w), pad)));
    _mm256_mask_storeu_ps(prep + 2 * dim + d, k, _mm512_cvtpd_ps(w));
  }
}

/// Gaps for the 8 rows of one transposed block at dimension d.
inline __m256 GapCT8(const float* above, const float* below,
                     const float* scale, const uint8_t* tcb, size_t d) {
  const __m128i b8 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(tcb + d * kTBlock));
  const __m256 c = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(b8));
  const __m256 cw = _mm256_mul_ps(c, _mm256_set1_ps(scale[d]));
  const __m256 g1 = _mm256_sub_ps(cw, _mm256_set1_ps(above[d]));
  const __m256 g2 = _mm256_sub_ps(_mm256_set1_ps(below[d]), cw);
  return _mm256_max_ps(_mm256_setzero_ps(), _mm256_max_ps(g1, g2));
}

/// The prep, then one block per pass (see above).
template <Acc kAcc>
void MaskAvx512(const float* q, const float* wf, const float* grid_lo,
                const float* grid_hi, size_t dim, const uint8_t* tcodes,
                size_t nblocks, double threshold, float* prep,
                uint8_t* masks) {
  PrepAvx512(q, grid_lo, grid_hi, dim, prep);
  const float* above = prep;
  const float* below = prep + dim;
  const float* scale = prep + 2 * dim;
  const __m512d t = _mm512_set1_pd(threshold);
  for (size_t b = 0; b < nblocks; ++b) {
    const uint8_t* tcb = tcodes + b * dim * kTBlock;
    __m512d s = _mm512_setzero_pd();
    __m256 m = _mm256_setzero_ps();  // kMax: the running max, in float
    __mmask8 alive = 0;
    size_t d = 0;
    while (d < dim) {
      const size_t end = d + kAbandonBlock < dim ? d + kAbandonBlock : dim;
      for (; d < end; ++d) {
        const __m256 g8 = GapCT8(above, below, scale, tcb, d);
        if constexpr (kAcc == kMax) {
          m = _mm256_max_ps(g8, m);
        } else {
          // Widen BEFORE squaring: the scalar reference squares in double.
          s = Step8<kAcc>(s, _mm512_cvtps_pd(g8), wf, d);
        }
      }
      if constexpr (kAcc == kMax) s = _mm512_cvtps_pd(m);
      alive = _mm512_cmp_pd_mask(s, t, _CMP_LE_OQ);
      if (alive == 0) break;
    }
    masks[b] = alive;
  }
}

// --- Sidecar box test (kernels.h ctm_box) -----------------------------------
//
// Four steps. The grid pass compares every bound with the grid, sixteen
// floats per compare: a bound beyond it rules out every row before any
// division. The code range then runs eight dimensions per __m512d and
// replays quant::BoxCodeRange lane for lane: a lane where the box cuts the
// grid (lo above grid_lo, or hi below grid_hi, on a grid of nonzero width)
// gets QuantizeLo's double operations (widen, subtract, divide by the
// width, times 256, floor, clamp) with no reciprocal and no FMA; every
// other lane takes the cell QuantizeLo gives it without the division — 0
// for a lo at or below grid_lo, a NaN lo or a zero-width grid, 255 for a
// hi at or above grid_hi or a NaN hi, and 0 for any other hi on a
// zero-width grid — so an eight-dimension group the box does not cut
// divides nothing. The spread copies each dimension's range over its
// kTBlock lanes into `range`, so that the test compares 64 code bytes —
// eight dimensions of a block's eight rows — per unsigned byte compare,
// against the matching 64 range bytes, and folds the out-of-range bits
// onto the block's rows. A block whose rows are all out stops early.
// Dimension tails are masked loads and stores, so no lane past `dim` is
// read or written.

/// The first min(n, 16) of sixteen lanes.
inline __mmask16 FirstLanes16(size_t n) {
  return n >= 16 ? __mmask16{0xffff} : static_cast<__mmask16>((1u << n) - 1);
}

/// QuantizeLo(v, gl, gh, 8) in the lanes of `cut`, as integral doubles (0
/// in the other lanes), for lanes whose grid has nonzero width.
inline __m512d QuantizeLo8(__mmask8 cut, __m256 v, __m256 gl, __m256 gh) {
  const __m512d lo = _mm512_cvtps_pd(gl);
  const __m512d w = _mm512_sub_pd(_mm512_cvtps_pd(gh), lo);
  const __m512d frac =
      _mm512_maskz_div_pd(cut, _mm512_sub_pd(_mm512_cvtps_pd(v), lo), w);
  const __m512d cell = _mm512_roundscale_pd(
      _mm512_mul_pd(frac, _mm512_set1_pd(quant::kSidecarCells)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  return _mm512_min_pd(_mm512_max_pd(cell, _mm512_setzero_pd()),
                       _mm512_set1_pd(quant::kSidecarCells - 1));
}

/// Eight integral doubles in [0, 255], each spread over the 8 bytes of
/// its 64-bit lane.
inline __m512i Spread8(__m512d cells) {
  // In each 128-bit lane: bytes 0-7 copy byte 0, bytes 8-15 copy byte 8.
  const __m512i from = _mm512_set_epi64(
      0x0808080808080808, 0, 0x0808080808080808, 0, 0x0808080808080808, 0,
      0x0808080808080808, 0);
  return _mm512_shuffle_epi8(_mm512_cvttpd_epi64(cells), from);
}

bool CodeBoxAvx512(const float* lo, const float* hi, const float* grid_lo,
                   const float* grid_hi, size_t dim, const uint8_t* tcodes,
                   size_t nblocks, uint8_t* range, uint8_t* masks) {
  const auto none = [&] {
    for (size_t b = 0; b < nblocks; ++b) masks[b] = 0;
    return false;
  };
  for (size_t d = 0; d < dim; d += 16) {
    const __mmask16 k = FirstLanes16(dim - d);
    // Ordered compares, so a NaN bound never rules out, and lanes past
    // `dim` (all 0) never do.
    const __m512 l = _mm512_maskz_loadu_ps(k, lo + d);
    const __m512 h = _mm512_maskz_loadu_ps(k, hi + d);
    const __m512 gl = _mm512_maskz_loadu_ps(k, grid_lo + d);
    const __m512 gh = _mm512_maskz_loadu_ps(k, grid_hi + d);
    if ((_mm512_cmp_ps_mask(l, gh, _CMP_GT_OQ) |
         _mm512_cmp_ps_mask(h, gl, _CMP_LT_OQ)) != 0) {
      return none();
    }
  }
  uint8_t* range_lo = range;
  uint8_t* range_hi = range + dim * kTBlock;
  const __m512d last_cell = _mm512_set1_pd(quant::kSidecarCells - 1);
  for (size_t d = 0; d < dim; d += 8) {
    const __mmask8 k = FirstLanes8(dim - d);
    const __m256 l = _mm256_maskz_loadu_ps(k, lo + d);
    const __m256 h = _mm256_maskz_loadu_ps(k, hi + d);
    const __m256 gl = _mm256_maskz_loadu_ps(k, grid_lo + d);
    const __m256 gh = _mm256_maskz_loadu_ps(k, grid_hi + d);
    const __mmask8 wide = _mm256_mask_cmp_ps_mask(k, gh, gl, _CMP_GT_OQ);
    const __mmask8 lo_cut = _mm256_mask_cmp_ps_mask(wide, l, gl, _CMP_GT_OQ);
    const __mmask8 hi_cut = _mm256_mask_cmp_ps_mask(wide, h, gh, _CMP_LT_OQ);
    const __mmask8 hi_top = wide | _mm256_mask_cmp_ps_mask(k, h, h, _CMP_UNORD_Q);
    __m512d clo = _mm512_setzero_pd();
    __m512d chi = _mm512_maskz_mov_pd(hi_top, last_cell);
    if (lo_cut != 0) clo = QuantizeLo8(lo_cut, l, gl, gh);
    if (hi_cut != 0) {
      chi = _mm512_mask_mov_pd(chi, hi_cut, QuantizeLo8(hi_cut, h, gl, gh));
    }
    if (_mm512_cmp_pd_mask(clo, chi, _CMP_GT_OQ) != 0) return none();
    _mm512_mask_storeu_epi64(range_lo + d * kTBlock, k, Spread8(clo));
    _mm512_mask_storeu_epi64(range_hi + d * kTBlock, k, Spread8(chi));
  }
  const size_t bytes = dim * kTBlock;  // one block
  unsigned any = 0;
  for (size_t b = 0; b < nblocks; ++b) {
    const uint8_t* tcb = tcodes + b * bytes;
    uint64_t out = 0;  // bit lane: that row left the range somewhere
    for (size_t off = 0; off < bytes && (out & 0xff) != 0xff; off += 64) {
      const __mmask64 k = bytes - off >= 64
                              ? ~__mmask64{0}
                              : (__mmask64{1} << (bytes - off)) - 1;
      const __m512i c = _mm512_maskz_loadu_epi8(k, tcb + off);
      const __m512i cl = _mm512_maskz_loadu_epi8(k, range_lo + off);
      const __m512i ch = _mm512_maskz_loadu_epi8(k, range_hi + off);
      // Byte j of the mask is dimension off / 8 + j / 8's row j % 8; fold
      // the eight dimensions onto the rows.
      uint64_t x =
          _mm512_cmplt_epu8_mask(c, cl) | _mm512_cmpgt_epu8_mask(c, ch);
      x |= x >> 32;
      x |= x >> 16;
      x |= x >> 8;
      out |= x;
    }
    masks[b] = static_cast<uint8_t>(~out);
    any |= masks[b];
  }
  return any != 0;
}

// Batch MINDIST over a dimension-major box set: sixteen boxes per group
// (two __m512d, one box per double lane), so each dimension's lo/hi loads
// cover one 64-byte row slice. Same per-lane replay of kernels::AxisGap
// and the accumulation's Step in dimension order as the AVX2 tier.

/// AxisGap of eight boxes, widened to double lanes: the masked subtracts
/// write q - hi where q > hi, then lo - q where q < lo (lo wins, as in the
/// scalar), and leave +0.0 elsewhere.
inline __m512d Gap8(__m512d qd, const float* lo, const float* hi) {
  const __m512d l = _mm512_cvtps_pd(_mm256_loadu_ps(lo));
  const __m512d h = _mm512_cvtps_pd(_mm256_loadu_ps(hi));
  const __m512d above =
      _mm512_maskz_sub_pd(_mm512_cmp_pd_mask(qd, h, _CMP_GT_OQ), qd, h);
  return _mm512_mask_sub_pd(above, _mm512_cmp_pd_mask(qd, l, _CMP_LT_OQ), l,
                            qd);
}

template <Acc kAcc>
void MinDistAvx512(const float* q, size_t dim, const float* lo,
                   const float* hi, size_t stride, size_t n, double* out) {
  for (size_t i = 0; i < n; i += kBoxLanes) {
    __m512d s0 = _mm512_setzero_pd();
    __m512d s1 = _mm512_setzero_pd();
    for (size_t d = 0; d < dim; ++d) {
      const __m512d qd = _mm512_set1_pd(static_cast<double>(q[d]));
      const float* l = lo + d * stride + i;
      const float* h = hi + d * stride + i;
      s0 = Step8<kAcc>(s0, Gap8(qd, l, h));
      s1 = Step8<kAcc>(s1, Gap8(qd, l + 8, h + 8));
    }
    if constexpr (IsSquared(kAcc)) {
      s0 = _mm512_sqrt_pd(s0);
      s1 = _mm512_sqrt_pd(s1);
    }
    _mm512_storeu_pd(out + i, s0);
    _mm512_storeu_pd(out + i + 8, s1);
  }
}

// Box-set overlap: sixteen boxes per 16-float compare. Inactive lanes
// start settled, so a group stops as soon as every lane is proven
// disjoint and escaping.
void BoxOverlapAvx512(const float* qlo, const float* qhi, size_t dim,
                      const float* lo, const float* hi, size_t stride,
                      size_t n, const uint64_t* active, uint64_t* intersects,
                      uint64_t* contains) {
  for (size_t w = 0; w < (n + 63) / 64; ++w) {
    intersects[w] = 0;
    contains[w] = 0;
  }
  for (size_t i = 0; i < n; i += kBoxLanes) {
    const __mmask16 act = static_cast<__mmask16>(active[i / 64] >> (i % 64));
    if (act == 0) continue;
    __mmask16 disjoint = static_cast<__mmask16>(~act);
    __mmask16 escapes = disjoint;
    for (size_t d = 0; d < dim && (disjoint & escapes) != 0xffff; ++d) {
      const __m512 ql = _mm512_set1_ps(qlo[d]);
      const __m512 qh = _mm512_set1_ps(qhi[d]);
      const __m512 bl = _mm512_loadu_ps(lo + d * stride + i);
      const __m512 bh = _mm512_loadu_ps(hi + d * stride + i);
      disjoint |= _mm512_cmp_ps_mask(bh, ql, _CMP_LT_OQ) |
                  _mm512_cmp_ps_mask(bl, qh, _CMP_GT_OQ);
      escapes |= _mm512_cmp_ps_mask(bl, ql, _CMP_LT_OQ) |
                 _mm512_cmp_ps_mask(bh, qh, _CMP_GT_OQ);
    }
    intersects[i / 64] |= static_cast<uint64_t>(~disjoint & act) << (i % 64);
    contains[i / 64] |= static_cast<uint64_t>(~escapes & act) << (i % 64);
  }
}

}  // namespace

const KernelTable& Avx512Table() {
  static const KernelTable table = {
      SimdTier::kAvx512,
      {&BatchAvx512<kSum>, &BatchAvx512<kSumSq>, &BatchAvx512<kMax>,
       &BatchAvx512<kWeightedSumSq>},
      {&MaskAvx512<kSum>, &MaskAvx512<kSumSq>, &MaskAvx512<kMax>,
       &MaskAvx512<kWeightedSumSq>},
      &CodeBoxAvx512,
      {&MinDistAvx512<kSum>, &MinDistAvx512<kSumSq>, &MinDistAvx512<kMax>},
      &BoxOverlapAvx512};
  return table;
}

}  // namespace ht::kernels

#endif  // HT_KERNELS_AVX512

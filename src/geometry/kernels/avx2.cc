// Copyright 2026 The HybridTree Authors.
// AVX2 kernel tier. Vectorizes ACROSS ROWS — four page rows per __m256d,
// one row per double lane — so each lane replays the scalar per-row
// accumulation exactly: same element order, separate mul/add (no FMA; this
// file is compiled with -mavx2 only, never -mfma, and GCC/Clang do not
// contract explicit intrinsics), and the same every-kAbandonBlock
// checkpoint schedule via a sticky per-lane dead mask. A lane goes dead
// only at checkpoints strictly before the final block — the scalar loop's
// break on the final checkpoint still emits the finished value — which is
// what keeps outputs bit-identical to the scalar tier (batch_kernel_test
// sweeps this per tier). Dead lanes keep accumulating (harmless: finite
// float inputs cannot overflow a double sum) and are blended to +infinity
// at the end. Each family is one template over the accumulation (kernels.h
// Acc), and every accumulation is Step4, row_ref.h Step in four lanes.
//
// No function of this file calls an inline function of a header or takes
// its address: that would emit a copy built with -mavx2 that the linker
// could pick for every tier (kernels.h). Scalar work goes to scalar.cc —
// the rows after the last group of four to the scalar tier's kernel, the
// abandon threshold to AbandonSquare, the mask prep to
// quant::PrepareFilter — and dimension tails are masked loads and stores.

#ifdef HT_KERNELS_AVX2

#include <immintrin.h>

#include "geometry/kernels/tables.h"
#include "geometry/quantize.h"

namespace ht::kernels {
namespace {

/// Accumulation kAcc's step over four double lanes (row_ref.h Step): `x`
/// is already a magnitude for kSum and kMax, and w[d] is the weight.
template <Acc kAcc, typename W = double>
inline __m256d Step4(__m256d s, __m256d x, const W* w = nullptr,
                     size_t d = 0) {
  if constexpr (kAcc == kSum) {
    return _mm256_add_pd(s, x);
  } else if constexpr (kAcc == kSumSq) {
    return _mm256_add_pd(s, _mm256_mul_pd(x, x));
  } else if constexpr (kAcc == kMax) {
    return _mm256_max_pd(x, s);  // x > s ? x : s, as the scalar
  } else {
    const __m256d wd = _mm256_set1_pd(static_cast<double>(w[d]));
    return _mm256_add_pd(s, _mm256_mul_pd(_mm256_mul_pd(wd, x), x));
  }
}

/// Element d of four strided rows, widened to double lanes.
inline __m256d Load4(const float* r0, const float* r1, const float* r2,
                     const float* r3, size_t d) {
  return _mm256_cvtps_pd(_mm_setr_ps(r0[d], r1[d], r2[d], r3[d]));
}

constexpr int kAllLanes = 0xf;

template <Acc kAcc>
void BatchAvx2(const float* q, const double* w, size_t dim, const float* pts,
               size_t stride, size_t n, double bound, double* out) {
  double limit = bound;
  if constexpr (IsSquared(kAcc)) limit = AbandonSquare(bound);
  const __m256d vlimit = _mm256_set1_pd(limit);
  const __m256d vinf = _mm256_set1_pd(kInf);
  const __m256d sign = _mm256_set1_pd(-0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* r0 = pts + i * stride;
    const float* r1 = r0 + stride;
    const float* r2 = r1 + stride;
    const float* r3 = r2 + stride;
    __m256d s = _mm256_setzero_pd();
    __m256d dead = _mm256_setzero_pd();
    size_t d = 0;
    while (d < dim) {
      const size_t end = d + kAbandonBlock < dim ? d + kAbandonBlock : dim;
      for (; d < end; ++d) {
        const __m256d qd = _mm256_set1_pd(static_cast<double>(q[d]));
        __m256d x = _mm256_sub_pd(qd, Load4(r0, r1, r2, r3, d));
        if constexpr (kAcc == kSum || kAcc == kMax) {
          x = _mm256_andnot_pd(sign, x);
        }
        s = Step4<kAcc>(s, x, w, d);
      }
      if (end < dim) {
        dead = _mm256_or_pd(dead, _mm256_cmp_pd(s, vlimit, _CMP_GT_OQ));
        if (_mm256_movemask_pd(dead) == kAllLanes) break;
      }
    }
    if (d < dim) {  // every lane abandoned
      s = vinf;
    } else {
      if constexpr (IsSquared(kAcc)) s = _mm256_sqrt_pd(s);
      s = _mm256_blendv_pd(s, vinf, dead);
    }
    _mm256_storeu_pd(out + i, s);
  }
  if (i < n) {
    ScalarTable().batch[kAcc](q, w, dim, pts + i * stride, stride, n - i,
                              bound, out + i);
  }
}

// --- Fused mask-filter kernels (kernels.h ctm) -----------------------------
//
// The prep is the reference quant::PrepareFilter (scalar.cc), so its
// floats are the scalar tier's by construction. Then one contiguous 8-byte
// code load covers dimension d of all 8 rows of a block. Gap math is in
// float (bitwise the scalar CodeGap, modulo -0.0 vs +0.0), and the
// accumulation in double lanes in dimension order — exactly RowCodeTRaw's
// sequence — except kMax, which runs in float (widening is exact and
// monotone). Each block is two 4-lane halves, two independent chains,
// compared against the precomputed threshold in-register at every
// checkpoint; movemask collapses the block to one survivor byte, and a
// block whose lanes all exceed the threshold stops there (the
// accumulators are monotone, so its 0 mask is what full accumulation
// gives). IEEE <= treats -0.0 == +0.0, so masks are bitwise identical
// across tiers.

/// Gaps for the 8 rows of one transposed block at dimension d.
inline __m256 GapT8(const float* above, const float* below,
                    const float* scale, const uint8_t* tcb, size_t d) {
  const __m128i b8 =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(tcb + d * kTBlock));
  const __m256 c = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(b8));
  const __m256 cw = _mm256_mul_ps(c, _mm256_set1_ps(scale[d]));
  const __m256 g1 = _mm256_sub_ps(cw, _mm256_set1_ps(above[d]));
  const __m256 g2 = _mm256_sub_ps(_mm256_set1_ps(below[d]), cw);
  return _mm256_max_ps(_mm256_setzero_ps(), _mm256_max_ps(g1, g2));
}

inline __m256d LowPd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}
inline __m256d HighPd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

/// Survivor bits for one block's two 4-double halves: bit i = lane i.
inline uint8_t MaskFromHalves(__m256d lo, __m256d hi, __m256d t) {
  const int mlo = _mm256_movemask_pd(_mm256_cmp_pd(lo, t, _CMP_LE_OQ));
  const int mhi = _mm256_movemask_pd(_mm256_cmp_pd(hi, t, _CMP_LE_OQ));
  return static_cast<uint8_t>(mlo | (mhi << 4));
}

template <Acc kAcc>
void MaskAvx2(const float* q, const float* wf, const float* grid_lo,
              const float* grid_hi, size_t dim, const uint8_t* tcodes,
              size_t nblocks, double threshold, float* prep,
              uint8_t* masks) {
  quant::PrepareFilter(q, grid_lo, grid_hi, dim, prep);
  const float* above = prep;
  const float* below = prep + dim;
  const float* scale = prep + 2 * dim;
  const __m256d t = _mm256_set1_pd(threshold);
  for (size_t b = 0; b < nblocks; ++b) {
    const uint8_t* tcb = tcodes + b * dim * kTBlock;
    __m256d lo = _mm256_setzero_pd();
    __m256d hi = _mm256_setzero_pd();
    __m256 m = _mm256_setzero_ps();  // kMax: the running max, in float
    uint8_t alive = 0;
    size_t d = 0;
    while (d < dim) {
      const size_t end = d + kAbandonBlock < dim ? d + kAbandonBlock : dim;
      for (; d < end; ++d) {
        const __m256 g = GapT8(above, below, scale, tcb, d);
        if constexpr (kAcc == kMax) {
          m = _mm256_max_ps(g, m);
        } else {
          // Widen BEFORE squaring: the scalar reference squares in double.
          lo = Step4<kAcc>(lo, LowPd(g), wf, d);
          hi = Step4<kAcc>(hi, HighPd(g), wf, d);
        }
      }
      if constexpr (kAcc == kMax) {
        lo = LowPd(m);
        hi = HighPd(m);
      }
      alive = MaskFromHalves(lo, hi, t);
      if (alive == 0) break;
    }
    masks[b] = alive;
  }
}

// --- Sidecar box test (kernels.h ctm_box) -----------------------------------
//
// The AVX-512 kernel's four steps (see avx512.cc) at half the width. The
// grid pass compares eight bounds with the grid per float compare. The
// code range runs four dimensions per __m256d with QuantizeLo's double
// operations (widen, subtract, divide by the width, times 256, floor,
// clamp; no reciprocal, no FMA) in the lanes where the box cuts the grid,
// and QuantizeLo's clamped cell without a division elsewhere, so a group
// the box does not cut divides nothing. The spread writes each
// dimension's range over its kTBlock lanes, and the test compares 32 code
// bytes — four dimensions of a block's eight rows — per unsigned byte
// compare: c lies in [cl, ch] iff max(c, cl) == c and min(c, ch) == c.
// Dimension tails are masked loads and stores (a masked-off lane reads
// 0), so no byte past `dim` is read or written, and no reference function
// is compiled into this -mavx2 file.

/// All-ones in the first min(n, 8) 32-bit lanes.
inline __m256i FirstLanes32x8(size_t n) {
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(n < 8 ? n : 8)), idx);
}

/// All-ones in the first min(n, 4) 64-bit lanes.
inline __m256i FirstLanes64x4(size_t n) {
  const __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(n < 4 ? n : 4)), idx);
}

/// QuantizeLo(v, gl, gh, 8) of four lanes, as integral doubles, for lanes
/// where the box cuts a grid of nonzero width; the caller blends the rest.
inline __m256d QuantizeLo4(__m256d v, __m256d gl, __m256d gh) {
  const __m256d frac = _mm256_div_pd(_mm256_sub_pd(v, gl),
                                     _mm256_sub_pd(gh, gl));
  const __m256d cell = _mm256_floor_pd(
      _mm256_mul_pd(frac, _mm256_set1_pd(quant::kSidecarCells)));
  return _mm256_min_pd(_mm256_max_pd(cell, _mm256_setzero_pd()),
                       _mm256_set1_pd(quant::kSidecarCells - 1));
}

/// Four integral doubles in [0, 255], each spread over 8 bytes of its
/// 64-bit lane.
inline __m256i Spread4(__m256d cells) {
  const __m128i c32 = _mm256_cvttpd_epi32(cells);  // four int32 lanes
  const __m128i lo = _mm_shuffle_epi8(
      c32, _mm_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 4, 4));
  const __m128i hi = _mm_shuffle_epi8(
      c32, _mm_setr_epi8(8, 8, 8, 8, 8, 8, 8, 8, 12, 12, 12, 12, 12, 12, 12,
                         12));
  return _mm256_set_m128i(hi, lo);
}

bool CodeBoxAvx2(const float* lo, const float* hi, const float* grid_lo,
                 const float* grid_hi, size_t dim, const uint8_t* tcodes,
                 size_t nblocks, uint8_t* range, uint8_t* masks) {
  const auto none = [&] {
    for (size_t b = 0; b < nblocks; ++b) masks[b] = 0;
    return false;
  };
  for (size_t d = 0; d < dim; d += 8) {
    const __m256i k = FirstLanes32x8(dim - d);
    // Ordered compares, so a NaN bound never rules out, and lanes past
    // `dim` (all 0) never do.
    const __m256 l = _mm256_maskload_ps(lo + d, k);
    const __m256 h = _mm256_maskload_ps(hi + d, k);
    const __m256 gl = _mm256_maskload_ps(grid_lo + d, k);
    const __m256 gh = _mm256_maskload_ps(grid_hi + d, k);
    const __m256 out = _mm256_or_ps(_mm256_cmp_ps(l, gh, _CMP_GT_OQ),
                                    _mm256_cmp_ps(h, gl, _CMP_LT_OQ));
    if (_mm256_movemask_ps(out) != 0) return none();
  }
  uint8_t* range_lo = range;
  uint8_t* range_hi = range + dim * kTBlock;
  const __m256d last_cell = _mm256_set1_pd(quant::kSidecarCells - 1);
  for (size_t d = 0; d < dim; d += 4) {
    const __m128i k = _mm256_castsi256_si128(FirstLanes32x8(dim - d));
    const __m256d l = _mm256_cvtps_pd(_mm_maskload_ps(lo + d, k));
    const __m256d h = _mm256_cvtps_pd(_mm_maskload_ps(hi + d, k));
    const __m256d gl = _mm256_cvtps_pd(_mm_maskload_ps(grid_lo + d, k));
    const __m256d gh = _mm256_cvtps_pd(_mm_maskload_ps(grid_hi + d, k));
    // Lanes past `dim` read 0 everywhere: zero width, so cell 0 on both
    // sides.
    const __m256d wide = _mm256_cmp_pd(gh, gl, _CMP_GT_OQ);
    const __m256d lo_cut = _mm256_and_pd(wide, _mm256_cmp_pd(l, gl, _CMP_GT_OQ));
    const __m256d hi_cut = _mm256_and_pd(wide, _mm256_cmp_pd(h, gh, _CMP_LT_OQ));
    const __m256d hi_top =
        _mm256_or_pd(wide, _mm256_cmp_pd(h, h, _CMP_UNORD_Q));
    __m256d clo = _mm256_setzero_pd();
    __m256d chi = _mm256_and_pd(hi_top, last_cell);
    if (_mm256_movemask_pd(lo_cut) != 0) {
      clo = _mm256_and_pd(lo_cut, QuantizeLo4(l, gl, gh));
    }
    if (_mm256_movemask_pd(hi_cut) != 0) {
      chi = _mm256_blendv_pd(chi, QuantizeLo4(h, gl, gh), hi_cut);
    }
    if (_mm256_movemask_pd(_mm256_cmp_pd(clo, chi, _CMP_GT_OQ)) != 0) {
      return none();
    }
    const __m256i k64 = FirstLanes64x4(dim - d);
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(range_lo + d * kTBlock),
                           k64, Spread4(clo));
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(range_hi + d * kTBlock),
                           k64, Spread4(chi));
  }
  const size_t bytes = dim * kTBlock;  // one block
  unsigned any = 0;
  for (size_t b = 0; b < nblocks; ++b) {
    const uint8_t* tcb = tcodes + b * bytes;
    uint32_t out = 0;  // bit lane: that row left the range somewhere
    for (size_t off = 0; off < bytes && (out & 0xff) != 0xff; off += 32) {
      // A block is a whole number of 8-byte dimensions: the tail is 1-3
      // 64-bit lanes.
      const __m256i k = FirstLanes64x4((bytes - off) / kTBlock);
      const auto load = [&k](const uint8_t* p) {
        return _mm256_maskload_epi64(reinterpret_cast<const long long*>(p),
                                     k);
      };
      const __m256i c = load(tcb + off);
      const __m256i in =
          _mm256_and_si256(_mm256_cmpeq_epi8(_mm256_max_epu8(c, load(range_lo + off)), c),
                           _mm256_cmpeq_epi8(_mm256_min_epu8(c, load(range_hi + off)), c));
      // Byte j of the mask is dimension off / 8 + j / 8's row j % 8; fold
      // the four dimensions onto the rows.
      uint32_t x = ~static_cast<uint32_t>(_mm256_movemask_epi8(in));
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
// (four __m256d, one box per double lane), so each dimension's lo/hi loads
// cover one 64-byte row slice. Each lane replays kernels::AxisGap and the
// accumulation's Step in dimension order with separate mul/add.

/// AxisGap of four boxes (four consecutive floats of a dimension row),
/// widened to double lanes: lo - q where q < lo, else q - hi where q > hi,
/// else +0.0 (ordered compares, so NaN bounds give 0).
inline __m256d Gap4(__m256d qd, const float* lo, const float* hi) {
  const __m256d l = _mm256_cvtps_pd(_mm_loadu_ps(lo));
  const __m256d h = _mm256_cvtps_pd(_mm_loadu_ps(hi));
  const __m256d above = _mm256_and_pd(_mm256_cmp_pd(qd, h, _CMP_GT_OQ),
                                      _mm256_sub_pd(qd, h));
  return _mm256_blendv_pd(above, _mm256_sub_pd(l, qd),
                          _mm256_cmp_pd(qd, l, _CMP_LT_OQ));
}

template <Acc kAcc>
void MinDistAvx2(const float* q, size_t dim, const float* lo, const float* hi,
                 size_t stride, size_t n, double* out) {
  for (size_t i = 0; i < n; i += kBoxLanes) {
    __m256d s[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                    _mm256_setzero_pd(), _mm256_setzero_pd()};
    for (size_t d = 0; d < dim; ++d) {
      const __m256d qd = _mm256_set1_pd(static_cast<double>(q[d]));
      const float* l = lo + d * stride + i;
      const float* h = hi + d * stride + i;
      for (size_t k = 0; k < 4; ++k) {
        s[k] = Step4<kAcc>(s[k], Gap4(qd, l + 4 * k, h + 4 * k));
      }
    }
    for (size_t k = 0; k < 4; ++k) {
      if constexpr (IsSquared(kAcc)) s[k] = _mm256_sqrt_pd(s[k]);
      _mm256_storeu_pd(out + i + 4 * k, s[k]);
    }
  }
}

// Box-set overlap: sixteen boxes per group as two 8-float compares per
// dimension. Inactive lanes start settled (both tests already failed), so
// a group stops as soon as every lane is proven disjoint and escaping.
void BoxOverlapAvx2(const float* qlo, const float* qhi, size_t dim,
                    const float* lo, const float* hi, size_t stride, size_t n,
                    const uint64_t* active, uint64_t* intersects,
                    uint64_t* contains) {
  for (size_t w = 0; w < (n + 63) / 64; ++w) {
    intersects[w] = 0;
    contains[w] = 0;
  }
  for (size_t i = 0; i < n; i += kBoxLanes) {
    const unsigned act =
        static_cast<unsigned>(active[i / 64] >> (i % 64)) & 0xffffu;
    if (act == 0) continue;
    unsigned disjoint = ~act & 0xffffu;
    unsigned escapes = disjoint;
    for (size_t d = 0; d < dim && (disjoint & escapes) != 0xffffu; ++d) {
      const __m256 ql = _mm256_set1_ps(qlo[d]);
      const __m256 qh = _mm256_set1_ps(qhi[d]);
      for (size_t half = 0; half < kBoxLanes; half += 8) {
        const __m256 bl = _mm256_loadu_ps(lo + d * stride + i + half);
        const __m256 bh = _mm256_loadu_ps(hi + d * stride + i + half);
        const __m256 dis = _mm256_or_ps(_mm256_cmp_ps(bh, ql, _CMP_LT_OQ),
                                        _mm256_cmp_ps(bl, qh, _CMP_GT_OQ));
        const __m256 esc = _mm256_or_ps(_mm256_cmp_ps(bl, ql, _CMP_LT_OQ),
                                        _mm256_cmp_ps(bh, qh, _CMP_GT_OQ));
        disjoint |= static_cast<unsigned>(_mm256_movemask_ps(dis)) << half;
        escapes |= static_cast<unsigned>(_mm256_movemask_ps(esc)) << half;
      }
    }
    intersects[i / 64] |= static_cast<uint64_t>(~disjoint & act) << (i % 64);
    contains[i / 64] |= static_cast<uint64_t>(~escapes & act) << (i % 64);
  }
}

}  // namespace

const KernelTable& Avx2Table() {
  static const KernelTable table = {
      SimdTier::kAvx2,
      {&BatchAvx2<kSum>, &BatchAvx2<kSumSq>, &BatchAvx2<kMax>,
       &BatchAvx2<kWeightedSumSq>},
      {&MaskAvx2<kSum>, &MaskAvx2<kSumSq>, &MaskAvx2<kMax>,
       &MaskAvx2<kWeightedSumSq>},
      &CodeBoxAvx2,
      {&MinDistAvx2<kSum>, &MinDistAvx2<kSumSq>, &MinDistAvx2<kMax>},
      &BoxOverlapAvx2};
  return table;
}

}  // namespace ht::kernels

#endif  // HT_KERNELS_AVX2

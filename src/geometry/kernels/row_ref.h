// Copyright 2026 The HybridTree Authors.
// The scalar references every dispatch tier replays (internal).
//
// One template per family over the accumulation (kernels.h Acc), all
// built on one per-dimension step: the distance row (Row), the code row
// of the mask filter (RowCodeTRaw) and the MINDIST row (MinDistRow).
// The scalar tier instantiates them into its table; the kernel metrics'
// Distance and MinDistToBox call them on one row or box, so a metric's
// exact distance and its kernels agree by construction. The SIMD tiers
// vectorize across rows and replay exactly this accumulation order and
// checkpoint schedule in each lane; they do not call these functions
// (kernels.h: no weak symbols in the SIMD objects).

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "geometry/kernels/kernels.h"

namespace ht::kernels::detail {

/// Accumulation kAcc's step over one dimension: `x` is the dimension's
/// term, already a magnitude for kSum and kMax (their callers take |x|;
/// gaps are never negative), and w[d], read as a double, its weight
/// (kWeightedSumSq only).
template <Acc kAcc, typename W = double>
inline double Step(double s, double x, const W* w = nullptr, size_t d = 0) {
  if constexpr (kAcc == kSum) {
    return s + x;
  } else if constexpr (kAcc == kSumSq) {
    return s + x * x;
  } else if constexpr (kAcc == kMax) {
    return x > s ? x : s;
  } else {
    return s + static_cast<double>(w[d]) * x * x;
  }
}

/// The distance from an accumulator: its sqrt for the squares.
template <Acc kAcc>
inline double Finish(double s) {
  if constexpr (IsSquared(kAcc)) return std::sqrt(s);
  return s;
}

/// The distance from q to one row, or kInf once the accumulator exceeds
/// `limit` at a checkpoint (every kAbandonBlock dimensions, and at the
/// end): `limit` is the bound, or AbandonSquare(bound) for the squares.
/// kInf abandons nothing, so it takes one block. `w` is WeightedL2's
/// weights.
template <Acc kAcc>
inline double Row(const float* q, const double* w, size_t dim,
                  const float* row, double limit) {
  const size_t block = limit == kInf ? dim : kAbandonBlock;
  double s = 0.0;
  size_t d = 0;
  while (d < dim) {
    const size_t end = std::min(dim, d + block);
    for (; d < end; ++d) {
      double x = static_cast<double>(q[d]) - row[d];
      if constexpr (kAcc == kSum || kAcc == kMax) x = std::fabs(x);
      s = Step<kAcc>(s, x, w, d);
    }
    if (s > limit) break;
  }
  return d == dim ? Finish<kAcc>(s) : kInf;
}

// --- Code-filter reference rows (the ctm reference; see quantize.h) --------

/// Per-dimension gap between the query and the padded cell of code c.
inline float CodeGap(float above, float below, float scale, uint8_t c) {
  const float cw = scale * static_cast<float>(c);
  float g = cw - above;
  const float g2 = below - cw;
  if (g2 > g) g = g2;
  if (g < 0.0f) g = 0.0f;
  return g;
}

/// Row `lane` of a transposed code block `tcb` (tcb[d * kTBlock + lane]):
/// the raw accumulator of its code gaps, before the lower bound's slack
/// multiply (and before the sqrt for the squares) — the value the fused
/// mask kernels (ctm) compare against quant::FilterThreshold(bound). `wf`
/// is WeightedL2's weights as floats.
template <Acc kAcc>
inline double RowCodeTRaw(const float* above, const float* below,
                          const float* scale, const float* wf, size_t dim,
                          const uint8_t* tcb, size_t lane) {
  double s = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const float g =
        CodeGap(above[d], below[d], scale[d], tcb[d * kTBlock + lane]);
    s = Step<kAcc>(s, static_cast<double>(g), wf, d);
  }
  return s;
}

// --- MINDIST reference row (kernels.h BoxMinDistFn) -----------------------

/// The MINDIST from q to one box whose bound in dimension d is lo[d *
/// stride] and hi[d * stride]: the scalar tier's batch MINDIST runs it on
/// each box of a dimension-major set, and the kernel metrics' MinDistToBox
/// on one Box (stride 1). `w` is WeightedL2's weights.
template <Acc kAcc>
inline double MinDistRow(const float* q, const double* w, size_t dim,
                         const float* lo, const float* hi, size_t stride) {
  double s = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    s = Step<kAcc>(s, AxisGap(q[d], lo[d * stride], hi[d * stride]), w, d);
  }
  return Finish<kAcc>(s);
}

}  // namespace ht::kernels::detail

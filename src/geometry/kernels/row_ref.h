// Copyright 2026 The HybridTree Authors.
// Per-row scalar reference loops shared by every dispatch tier (internal).
//
// The scalar tier applies these to whole pages; the SIMD tiers apply the
// distance rows to the tail rows left over after the vector-width row
// groups. Cross-tier bit-identity rests on this being the ONLY scalar
// formulation: the vector lanes replay exactly this accumulation order and
// checkpoint schedule. These are the loops the pre-dispatch metrics.h
// batch kernels inlined; they must not be "improved" independently of the
// SIMD tiers.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "geometry/kernels/kernels.h"

namespace ht::kernels::detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

inline double RowL1(const float* q, size_t dim, const float* row,
                    double bound) {
  double s = 0.0;
  size_t d = 0;
  while (d < dim) {
    const size_t end = std::min(dim, d + kAbandonBlock);
    for (; d < end; ++d) {
      s += std::fabs(static_cast<double>(q[d]) - row[d]);
    }
    if (s > bound) break;
  }
  return d == dim ? s : kInf;
}

/// `b2` is AbandonSquare(bound), applied once by the caller.
inline double RowL2(const float* q, size_t dim, const float* row, double b2) {
  double s = 0.0;
  size_t d = 0;
  while (d < dim) {
    const size_t end = std::min(dim, d + kAbandonBlock);
    for (; d < end; ++d) {
      const double diff = static_cast<double>(q[d]) - row[d];
      s += diff * diff;
    }
    if (s > b2) break;
  }
  return d == dim ? std::sqrt(s) : kInf;
}

inline double RowLInf(const float* q, size_t dim, const float* row,
                      double bound) {
  double m = 0.0;
  size_t d = 0;
  while (d < dim) {
    const size_t end = std::min(dim, d + kAbandonBlock);
    for (; d < end; ++d) {
      const double diff = std::fabs(static_cast<double>(q[d]) - row[d]);
      if (diff > m) m = diff;
    }
    if (m > bound) break;
  }
  return d == dim ? m : kInf;
}

/// `b2` is AbandonSquare(bound). Accumulation is w[d] * diff * diff with
/// the scalar's left association: (w * diff) * diff.
inline double RowWL2(const float* q, const double* w, size_t dim,
                     const float* row, double b2) {
  double s = 0.0;
  size_t d = 0;
  while (d < dim) {
    const size_t end = std::min(dim, d + kAbandonBlock);
    for (; d < end; ++d) {
      const double diff = static_cast<double>(q[d]) - row[d];
      s += w[d] * diff * diff;
    }
    if (s > b2) break;
  }
  return d == dim ? std::sqrt(s) : kInf;
}

// --- Code-filter reference rows (the ctm_* reference; see quantize.h) ------

/// Per-dimension gap between the query and the padded cell of code c.
inline float CodeGap(float above, float below, float scale, uint8_t c) {
  const float cw = scale * static_cast<float>(c);
  float g = cw - above;
  const float g2 = below - cw;
  if (g2 > g) g = g2;
  if (g < 0.0f) g = 0.0f;
  return g;
}

// Row `lane` of a transposed code block `tcb` (tcb[d * kTBlock + lane]):
// the raw accumulator, before the lower bound's slack multiply (and before
// the sqrt for the squared metrics) — the value the fused mask kernels
// (ctm_*) compare against quant::FilterThreshold(bound).
inline double RowCodeTRawL1(const float* above, const float* below,
                            const float* scale, size_t dim,
                            const uint8_t* tcb, size_t lane) {
  double s = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    s += static_cast<double>(
        CodeGap(above[d], below[d], scale[d], tcb[d * kTBlock + lane]));
  }
  return s;
}

inline double RowCodeTRawL2(const float* above, const float* below,
                            const float* scale, size_t dim,
                            const uint8_t* tcb, size_t lane) {
  double s = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const float g =
        CodeGap(above[d], below[d], scale[d], tcb[d * kTBlock + lane]);
    s += static_cast<double>(g) * g;
  }
  return s;
}

inline double RowCodeTRawLInf(const float* above, const float* below,
                              const float* scale, size_t dim,
                              const uint8_t* tcb, size_t lane) {
  float m = 0.0f;
  for (size_t d = 0; d < dim; ++d) {
    const float g =
        CodeGap(above[d], below[d], scale[d], tcb[d * kTBlock + lane]);
    if (g > m) m = g;
  }
  return static_cast<double>(m);
}

inline double RowCodeTRawWL2(const float* above, const float* below,
                             const float* scale, const float* wf, size_t dim,
                             const uint8_t* tcb, size_t lane) {
  double s = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const float g =
        CodeGap(above[d], below[d], scale[d], tcb[d * kTBlock + lane]);
    s += static_cast<double>(wf[d]) * g * g;
  }
  return s;
}

}  // namespace ht::kernels::detail

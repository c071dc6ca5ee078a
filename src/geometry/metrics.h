// Copyright 2026 The HybridTree Authors.
// Distance metrics for distance-based queries (§3.5).
//
// The hybrid tree is a *feature-based* index: the partitioning is
// independent of the distance function, so the metric can be chosen per
// query — including between iterations of a relevance-feedback loop (the
// MARS use case the paper motivates). A metric must supply the
// point-to-point distance and a lower bound on the distance from a point to
// any point inside a box (MINDIST), which drives branch-and-bound pruning.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "geometry/box.h"
#include "geometry/kernels/kernels.h"
#include "geometry/kernels/row_ref.h"
#include "geometry/quantize.h"

namespace ht {

/// Abstract distance function. Implementations must be symmetric and
/// non-negative; MinDistToBox must never exceed the true minimum distance
/// (otherwise pruning would drop results).
class DistanceMetric {
 public:
  virtual ~DistanceMetric() = default;

  virtual double Distance(std::span<const float> a,
                          std::span<const float> b) const = 0;

  /// Lower bound on Distance(q, x) over all x in `box`.
  virtual double MinDistToBox(std::span<const float> q,
                              const Box& box) const = 0;

  /// MinDistToBox for every box of a dimension-major set (the children of
  /// one index node): out[i] is bit-identical to MinDistToBox(q, box i)
  /// for i < boxes.count. `out` must hold boxes.stride doubles; kernels
  /// may fill the padding lanes. The default gathers each box into a
  /// per-thread scratch Box, so every metric works without a kernel; L1,
  /// L2 and LInf make one SIMD kernel call instead (KernelMetric).
  virtual void MinDistToBoxes(std::span<const float> q,
                              const BoxSetView& boxes, double* out) const {
    thread_local Box box;
    for (size_t i = 0; i < boxes.count; ++i) {
      boxes.Gather(i, &box);
      out[i] = MinDistToBox(q, box);
    }
  }

  /// Lower bound on Distance(q, x) over all x in the *Euclidean* ball
  /// B(center, radius) — the bounding-sphere component of SR-tree regions.
  /// The default (0) disables sphere pruning, which is always sound.
  virtual double MinDistToSphere(std::span<const float> q,
                                 std::span<const float> center,
                                 double radius) const {
    (void)q;
    (void)center;
    (void)radius;
    return 0.0;
  }

  // --- Batched distance kernels (query hot path) ---------------------------
  //
  // `pts` is a row-major block of `n` rows of q.size() host-order floats
  // with `stride` floats between consecutive row starts — exactly the float
  // payload of a serialized data page (see DataPageScan::block()). One
  // virtual dispatch covers the whole page; inside, the loop runs over raw
  // pointers and auto-vectorizes.
  //
  // Contract: batch kernels are an execution strategy, never an
  // approximation. `bound` (>= 0, may be +infinity or
  // numeric_limits<double>::max()) is the caller's current pruning
  // threshold — a query radius or the k-th candidate distance. For every
  // row whose true distance is <= bound, out[i] is bit-identical to
  // Distance(q, row_i); a row whose distance exceeds bound may be
  // abandoned mid-accumulation, in which case out[i] is any value > bound
  // (specialized kernels write +infinity). Callers must therefore only
  // ever test out[i] <= bound — never consume an above-bound value as a
  // distance. At bound = +infinity no row is abandoned, so every out[i] is
  // exact. Outputs are NaN-free for NaN-free inputs. The default loops
  // over rows calling the virtual Distance() and never abandons — sound
  // for every metric, and the scalar baseline bench_hotpath measures.
  virtual void BatchDistanceWithBound(std::span<const float> q,
                                      const float* pts, size_t stride,
                                      size_t n, double bound,
                                      double* out) const {
    (void)bound;
    for (size_t i = 0; i < n; ++i) {
      out[i] = Distance(q, std::span<const float>(pts + i * stride, q.size()));
    }
  }

  /// The sidecar filter (geometry/quantize.h): writes one survivor bit per
  /// row of a page's 8-bit sidecar into `masks` (bit i of masks[b] covers
  /// row b * kernels::kTBlock + i; page.blocks bytes, the bits at and above
  /// page.count zero) and returns true. A set bit means the row's sound
  /// code lower bound does not exceed `bound` (modulo the hair of upward
  /// slack in quant::FilterThreshold — extra survivors are sound, they
  /// just get refined exactly); a clear bit proves the row's true distance
  /// exceeds `bound`. Returns false when the metric has no mask kernel
  /// (the caller then scans unfiltered). Masks are bitwise identical
  /// across SIMD dispatch tiers (see kernels.h CodeMaskTFn).
  virtual bool CodeFilterMasks(std::span<const float> q,
                               const quant::PageCodesView& page, double bound,
                               quant::FilterScratch* scratch,
                               uint8_t* masks) const {
    (void)q;
    (void)page;
    (void)bound;
    (void)scratch;
    (void)masks;
    return false;
  }

  /// True when the metric implements CodeFilterMasks. The default matches
  /// the base-class fallback above: no code-space bound exists, so the
  /// tree's sidecar filter must not even BUILD the 8-bit sidecar — it
  /// would only cache pages the metric can never filter with. The kernel metrics
  /// (KernelMetric) override this to true.
  virtual bool SupportsCodeFilter() const { return false; }

  virtual std::string Name() const = 0;
};

namespace metric_detail {
inline double EuclideanDistance(std::span<const float> a,
                                std::span<const float> b) {
  double s = 0.0;
  for (size_t d = 0; d < a.size(); ++d) {
    const double diff = static_cast<double>(a[d]) - b[d];
    s += diff * diff;
  }
  return std::sqrt(s);
}

/// Per-dimension gap between q[d] and the interval [lo,hi]; 0 if inside.
/// Defined next to the batch MINDIST kernels, which replay it per lane.
using kernels::AxisGap;
}  // namespace metric_detail

/// Minkowski L_p metric for finite p >= 1. Specialized subclasses exist for
/// the common p = 1 and p = 2 cases (avoiding pow in the inner loop).
class LpMetric : public DistanceMetric {
 public:
  explicit LpMetric(double p) : p_(p) { HT_CHECK(p >= 1.0); }

  double Distance(std::span<const float> a,
                  std::span<const float> b) const override {
    double s = 0.0;
    for (size_t d = 0; d < a.size(); ++d) {
      s += std::pow(std::fabs(static_cast<double>(a[d]) - b[d]), p_);
    }
    return std::pow(s, 1.0 / p_);
  }

  double MinDistToBox(std::span<const float> q,
                      const Box& box) const override {
    double s = 0.0;
    for (uint32_t d = 0; d < box.dim(); ++d) {
      double g = metric_detail::AxisGap(q[d], box.lo(d), box.hi(d));
      if (g > 0.0) s += std::pow(g, p_);
    }
    return std::pow(s, 1.0 / p_);
  }

  std::string Name() const override {
    // %g trims trailing zeros: "L2" for p = 2.0, "L2.5" for p = 2.5
    // (std::to_string would print "L2.000000").
    char buf[32];
    std::snprintf(buf, sizeof(buf), "L%g", p_);
    return buf;
  }

  double p() const { return p_; }

 private:
  double p_;
};

/// The shared implementation of the metrics the SIMD kernels serve, one
/// per accumulation (kernels.h Acc): Distance is the scalar reference row
/// with nothing abandoned, MinDistToBox the scalar MINDIST reference row
/// on one box, and the batch distance, sidecar mask and batch MINDIST run
/// the active tier's kernel for kAcc, so each equals its kernel by
/// construction. WeightedL2 has no MINDIST kernel: its MinDistToBoxes is
/// the default.
template <kernels::Acc kAcc>
class KernelMetric : public DistanceMetric {
 public:
  double Distance(std::span<const float> a,
                  std::span<const float> b) const override {
    return kernels::detail::Row<kAcc>(a.data(), w_.data(), a.size(),
                                      b.data(), kernels::kInf);
  }
  double MinDistToBox(std::span<const float> q,
                      const Box& box) const override {
    return kernels::detail::MinDistRow<kAcc>(q.data(), w_.data(), box.dim(),
                                             box.lo().data(), box.hi().data(),
                                             1);
  }
  void MinDistToBoxes(std::span<const float> q, const BoxSetView& boxes,
                      double* out) const override {
    if constexpr (kAcc == kernels::kWeightedSumSq) {
      DistanceMetric::MinDistToBoxes(q, boxes, out);
    } else {
      kernels::Active().mindist[kAcc](q.data(), boxes.dim, boxes.lo, boxes.hi,
                                      boxes.stride, boxes.count, out);
    }
  }
  // The accumulators are monotone, so abandoning a row at a checkpoint
  // where it exceeds the bound (its square, for the squares) is exact.
  void BatchDistanceWithBound(std::span<const float> q, const float* pts,
                              size_t stride, size_t n, double bound,
                              double* out) const override {
    kernels::Active().batch[kAcc](q.data(), w_.data(), q.size(), pts, stride,
                                  n, bound, out);
  }
  bool CodeFilterMasks(std::span<const float> q,
                       const quant::PageCodesView& page, double bound,
                       quant::FilterScratch* scratch,
                       uint8_t* masks) const override {
    return quant::RunMaskKernel(
        kernels::Active().ctm[kAcc], q.data(), wf_.data(), page,
        quant::FilterThreshold(bound, kernels::IsSquared(kAcc)), scratch,
        masks);
  }
  bool SupportsCodeFilter() const override { return true; }

 protected:
  /// WeightedL2's weights, and the same rounded to float for the mask
  /// kernel; empty for the other metrics.
  std::vector<double> w_;
  std::vector<float> wf_;
};

/// Manhattan distance — the metric the paper uses for its distance-based
/// query experiments (Figure 7(c),(d), following [18]).
class L1Metric final : public KernelMetric<kernels::kSum> {
 public:
  double MinDistToSphere(std::span<const float> q,
                         std::span<const float> center,
                         double radius) const override {
    // ||x||_1 >= ||x||_2, so the Euclidean gap lower-bounds the L1 gap.
    return std::max(0.0, metric_detail::EuclideanDistance(q, center) - radius);
  }
  std::string Name() const override { return "L1"; }
};

/// Euclidean distance.
class L2Metric final : public KernelMetric<kernels::kSumSq> {
 public:
  double MinDistToSphere(std::span<const float> q,
                         std::span<const float> center,
                         double radius) const override {
    return std::max(0.0, metric_detail::EuclideanDistance(q, center) - radius);
  }
  std::string Name() const override { return "L2"; }
};

/// Chebyshev distance.
class LInfMetric final : public KernelMetric<kernels::kMax> {
 public:
  double MinDistToSphere(std::span<const float> q,
                         std::span<const float> center,
                         double radius) const override {
    // ||x||_inf >= ||x||_2 / sqrt(d).
    const double d2 = metric_detail::EuclideanDistance(q, center);
    return std::max(0.0, (d2 - radius) /
                             std::sqrt(static_cast<double>(q.size())));
  }
  std::string Name() const override { return "Linf"; }
};

/// Weighted Euclidean distance: sqrt(sum_d w_d (a_d - b_d)^2), w_d >= 0.
/// The relevance-feedback example re-weights dimensions between iterations
/// of the same query — the arbitrary-distance-function capability the paper
/// highlights over distance-based indexes (SS-tree, M-tree).
class WeightedL2Metric final : public KernelMetric<kernels::kWeightedSumSq> {
 public:
  explicit WeightedL2Metric(std::vector<double> weights) {
    double min_w = std::numeric_limits<double>::max();
    for (double w : weights) {
      HT_CHECK(w >= 0.0);
      min_w = std::min(min_w, w);
    }
    sqrt_min_w_ = std::sqrt(min_w);
    w_ = std::move(weights);
    wf_.assign(w_.begin(), w_.end());
  }

  double MinDistToSphere(std::span<const float> q,
                         std::span<const float> center,
                         double radius) const override {
    // d_w(q,x) >= sqrt(min_d w_d) * ||q - x||_2. sqrt(min_w) is fixed for
    // the life of the metric, so it is computed once in the constructor.
    const double d2 = metric_detail::EuclideanDistance(q, center);
    return sqrt_min_w_ * std::max(0.0, d2 - radius);
  }
  std::string Name() const override { return "WeightedL2"; }

  const std::vector<double>& weights() const { return w_; }

 private:
  double sqrt_min_w_ = 0.0;
};

/// Generalized ellipsoid (quadratic-form) distance
/// d(a,b) = sqrt((a-b)^T W (a-b)) for a symmetric positive semi-definite
/// matrix W — the full MindReader/MARS relevance-feedback metric the paper
/// cites ([13], [21]): cross-dimension correlations learned from feedback
/// become off-diagonal entries of W. Feature-based indexes answer it on
/// the same tree; distance-based ones cannot.
///
/// MINDIST lower bounds use d_W(x,y) >= sqrt(lambda_min(W)) * ||x-y||_2
/// with lambda_min bounded from below (cheaply, conservatively) by the
/// Gershgorin circle theorem: lambda_min >= min_i(W_ii - sum_{j!=i}|W_ij|),
/// clamped at 0. A zero bound disables box/sphere pruning but never
/// affects correctness.
class QuadraticFormMetric final : public DistanceMetric {
 public:
  /// `matrix` is row-major dim x dim; it must be symmetric PSD (checked
  /// only for symmetry; PSD is the caller's contract as with [13]).
  QuadraticFormMetric(uint32_t dim, std::vector<double> matrix)
      : dim_(dim), w_(std::move(matrix)) {
    HT_CHECK(w_.size() == static_cast<size_t>(dim_) * dim_);
    double lo = std::numeric_limits<double>::max();
    for (uint32_t i = 0; i < dim_; ++i) {
      HT_CHECK(w_[i * dim_ + i] >= 0.0);
      double off = 0.0;
      for (uint32_t j = 0; j < dim_; ++j) {
        HT_CHECK(std::fabs(w_[i * dim_ + j] - w_[j * dim_ + i]) < 1e-9);
        if (j != i) off += std::fabs(w_[i * dim_ + j]);
      }
      lo = std::min(lo, w_[i * dim_ + i] - off);
    }
    sqrt_lambda_min_ = std::sqrt(std::max(0.0, lo));
  }

  double Distance(std::span<const float> a,
                  std::span<const float> b) const override {
    double s = 0.0;
    for (uint32_t i = 0; i < dim_; ++i) {
      const double di = static_cast<double>(a[i]) - b[i];
      const double* row = &w_[static_cast<size_t>(i) * dim_];
      double acc = 0.0;
      for (uint32_t j = 0; j < dim_; ++j) {
        acc += row[j] * (static_cast<double>(a[j]) - b[j]);
      }
      s += di * acc;
    }
    return std::sqrt(std::max(0.0, s));
  }

  double MinDistToBox(std::span<const float> q,
                      const Box& box) const override {
    if (sqrt_lambda_min_ == 0.0) return 0.0;
    double s = 0.0;
    for (uint32_t d = 0; d < box.dim(); ++d) {
      const double g = metric_detail::AxisGap(q[d], box.lo(d), box.hi(d));
      s += g * g;
    }
    return sqrt_lambda_min_ * std::sqrt(s);
  }

  double MinDistToSphere(std::span<const float> q,
                         std::span<const float> center,
                         double radius) const override {
    const double d2 = metric_detail::EuclideanDistance(q, center);
    return sqrt_lambda_min_ * std::max(0.0, d2 - radius);
  }

  std::string Name() const override { return "QuadraticForm"; }

  /// The Gershgorin lower bound actually used for pruning (tests).
  double sqrt_lambda_min() const { return sqrt_lambda_min_; }

 private:
  uint32_t dim_;
  std::vector<double> w_;
  double sqrt_lambda_min_ = 0.0;
};

}  // namespace ht

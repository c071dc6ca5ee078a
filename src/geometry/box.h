// Copyright 2026 The HybridTree Authors.
// Axis-aligned k-dimensional bounding boxes (the paper's BRs).

#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "geometry/kernels/kernels.h"

namespace ht {

/// A k-dimensional axis-aligned box [lo[i], hi[i]] per dimension. Boxes are
/// closed intervals; a box with lo > hi in any dimension is "empty".
class Box {
 public:
  Box() = default;

  /// A box covering the whole normalized feature space [0,1]^dim (the paper
  /// assumes a normalized feature space, §3.2).
  static Box UnitCube(uint32_t dim) {
    Box b;
    b.lo_.assign(dim, 0.0f);
    b.hi_.assign(dim, 1.0f);
    return b;
  }

  /// The "empty" box (identity for ExtendToInclude).
  static Box Empty(uint32_t dim) {
    Box b;
    b.lo_.assign(dim, std::numeric_limits<float>::max());
    b.hi_.assign(dim, std::numeric_limits<float>::lowest());
    return b;
  }

  /// A degenerate box around a single point.
  static Box FromPoint(std::span<const float> p) {
    Box b;
    b.lo_.assign(p.begin(), p.end());
    b.hi_.assign(p.begin(), p.end());
    return b;
  }

  static Box FromBounds(std::vector<float> lo, std::vector<float> hi) {
    HT_DCHECK(lo.size() == hi.size());
    Box b;
    b.lo_ = std::move(lo);
    b.hi_ = std::move(hi);
    return b;
  }

  uint32_t dim() const { return static_cast<uint32_t>(lo_.size()); }
  float lo(uint32_t d) const { return lo_[d]; }
  float hi(uint32_t d) const { return hi_[d]; }
  void set_lo(uint32_t d, float v) { lo_[d] = v; }
  void set_hi(uint32_t d, float v) { hi_[d] = v; }
  std::span<const float> lo() const { return lo_; }
  std::span<const float> hi() const { return hi_; }

  bool IsEmpty() const {
    for (uint32_t d = 0; d < dim(); ++d) {
      if (lo_[d] > hi_[d]) return true;
    }
    return dim() == 0;
  }

  /// Extent (side length) along dimension d.
  float Extent(uint32_t d) const { return hi_[d] - lo_[d]; }

  /// The dimension with the largest extent — the paper's EDA-optimal data
  /// node split dimension (§3.2).
  uint32_t MaxExtentDim() const {
    uint32_t best = 0;
    float best_e = Extent(0);
    for (uint32_t d = 1; d < dim(); ++d) {
      if (Extent(d) > best_e) {
        best_e = Extent(d);
        best = d;
      }
    }
    return best;
  }

  bool ContainsPoint(std::span<const float> p) const {
    for (uint32_t d = 0; d < dim(); ++d) {
      if (p[d] < lo_[d] || p[d] > hi_[d]) return false;
    }
    return true;
  }

  /// Closed-interval predicates with ordered compares, so a NaN bound
  /// never proves disjointness or escape (kernels::BoxIntersectsScalar /
  /// BoxContainsScalar). The hybrid tree's searches do not call them
  /// (directory descent runs DistanceMetric::MinDistToBoxes and the
  /// box_overlap kernel over a FlatIndexNode); their callers are the
  /// baseline trees' directory tests and invariant checks, hB split
  /// posting and TreeValidator.
  bool ContainsBox(const Box& o) const {
    return kernels::BoxContainsScalar(lo_.data(), hi_.data(), o.lo_.data(),
                                      o.hi_.data(), lo_.size());
  }

  bool Intersects(const Box& o) const {
    return kernels::BoxIntersectsScalar(lo_.data(), hi_.data(), o.lo_.data(),
                                        o.hi_.data(), lo_.size());
  }

  /// Geometric intersection (may be empty).
  Box Intersection(const Box& o) const {
    Box b = *this;
    for (uint32_t d = 0; d < dim(); ++d) {
      if (o.lo_[d] > b.lo_[d]) b.lo_[d] = o.lo_[d];
      if (o.hi_[d] < b.hi_[d]) b.hi_[d] = o.hi_[d];
    }
    return b;
  }

  /// Grows this box to include point p.
  void ExtendToInclude(std::span<const float> p) {
    for (uint32_t d = 0; d < dim(); ++d) {
      if (p[d] < lo_[d]) lo_[d] = p[d];
      if (p[d] > hi_[d]) hi_[d] = p[d];
    }
  }

  /// Grows this box to include box o.
  void ExtendToInclude(const Box& o) {
    for (uint32_t d = 0; d < dim(); ++d) {
      if (o.lo_[d] < lo_[d]) lo_[d] = o.lo_[d];
      if (o.hi_[d] > hi_[d]) hi_[d] = o.hi_[d];
    }
  }

  /// Volume. Uses double accumulation; high-dimensional volumes underflow
  /// gracefully toward 0, which is acceptable for tie-breaking uses.
  double Volume() const {
    double v = 1.0;
    for (uint32_t d = 0; d < dim(); ++d) {
      float e = Extent(d);
      if (e < 0) return 0.0;
      v *= static_cast<double>(e);
    }
    return v;
  }

  /// Sum of side lengths (the R*-tree "margin").
  double Margin() const {
    double m = 0.0;
    for (uint32_t d = 0; d < dim(); ++d) m += Extent(d);
    return m;
  }

  /// Volume of the overlap with `o` (0 if disjoint).
  double OverlapVolume(const Box& o) const {
    double v = 1.0;
    for (uint32_t d = 0; d < dim(); ++d) {
      float l = lo_[d] > o.lo_[d] ? lo_[d] : o.lo_[d];
      float h = hi_[d] < o.hi_[d] ? hi_[d] : o.hi_[d];
      if (h <= l) return 0.0;
      v *= static_cast<double>(h - l);
    }
    return v;
  }

  /// Increase in volume needed to include p (DP-tree ChooseSubtree cost).
  double EnlargementForPoint(std::span<const float> p) const {
    double before = Volume();
    Box b = *this;
    b.ExtendToInclude(p);
    return b.Volume() - before;
  }

  /// The probability that a uniformly-placed box query with side `r`
  /// overlaps this box inside the unit data space: the Minkowski sum volume
  /// prod_d (extent_d + r), clipped to [0,1] per factor (§3.2 of the paper;
  /// the clip accounts for the BR+query exceeding the data space).
  double MinkowskiOverlapProb(double r) const {
    double v = 1.0;
    for (uint32_t d = 0; d < dim(); ++d) {
      double f = static_cast<double>(Extent(d)) + r;
      if (f > 1.0) f = 1.0;
      v *= f;
    }
    return v;
  }

  bool operator==(const Box& o) const { return lo_ == o.lo_ && hi_ == o.hi_; }

  std::string ToString() const;

 private:
  std::vector<float> lo_;
  std::vector<float> hi_;
};

/// True when every coordinate of `point` lies in [0,1], the normalized
/// feature space (paper §3.2) that every index structure covers. NaN and
/// ±inf are outside.
inline bool InUnitCube(std::span<const float> point) {
  for (float v : point) {
    if (!(v >= 0.0f && v <= 1.0f)) return false;
  }
  return true;
}

/// A read-only set of `count` boxes stored dimension-major: box i's bounds
/// in dimension d are lo[d * stride + i] and hi[d * stride + i], with
/// stride a multiple of kernels::kBoxLanes. An index node's child live
/// boxes use this layout on the read path (core/node.h FlatIndexNode), so
/// one kernel call scores every child with contiguous loads.
struct BoxSetView {
  const float* lo = nullptr;
  const float* hi = nullptr;
  uint32_t dim = 0;
  size_t stride = 0;
  size_t count = 0;

  /// Copies box i into `out`, reusing its storage when the dimensionality
  /// already matches.
  void Gather(size_t i, Box* out) const {
    if (out->dim() != dim) *out = Box::Empty(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      out->set_lo(d, lo[d * stride + i]);
      out->set_hi(d, hi[d * stride + i]);
    }
  }
};

}  // namespace ht

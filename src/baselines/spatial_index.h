// Copyright 2026 The HybridTree Authors.
// Common interface over all index structures in the evaluation (hybrid
// tree, SR-tree, hB-tree, KDB-tree, R*-tree, X-tree, sequential scan), so
// the benchmark harness can drive them uniformly.

#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geometry/box.h"
#include "geometry/metrics.h"
#include "storage/buffer_pool.h"

namespace ht {

class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  virtual std::string Name() const = 0;

  /// Every structure covers the normalized feature space: a point outside
  /// [0,1]^dim (InUnitCube; NaN included) gets InvalidArgument and is not
  /// stored.
  virtual Status Insert(std::span<const float> point, uint64_t id) = 0;

  /// Returns NotSupported where the structure lacks the operation (e.g.,
  /// deletion in the hB-tree, whose eliminate phase the original paper
  /// leaves unspecified for multi-parent nodes).
  virtual Status Delete(std::span<const float> point, uint64_t id) {
    (void)point;
    (void)id;
    return Status::NotSupported(Name() + " does not implement Delete");
  }

  virtual Result<std::vector<uint64_t>> SearchBox(const Box& query) = 0;

  virtual Result<std::vector<uint64_t>> SearchRange(
      std::span<const float> center, double radius,
      const DistanceMetric& metric) = 0;

  virtual Result<std::vector<std::pair<double, uint64_t>>> SearchKnn(
      std::span<const float> center, size_t k,
      const DistanceMetric& metric) = 0;

  virtual uint64_t size() const = 0;

  /// Buffer pool used for node I/O; stats().logical_reads across a query is
  /// the "disk accesses" unit the paper plots.
  virtual BufferPool& pool() = 0;

  /// True when this structure's page reads are sequential (the paper costs
  /// sequential I/O at 1/10 of a random access).
  virtual bool sequential_io() const { return false; }
};

}  // namespace ht

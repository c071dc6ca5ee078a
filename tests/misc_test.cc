// Remaining corners: IoStats arithmetic, SpatialIndex interface defaults,
// Box degenerate cases, workload determinism.

#include <gtest/gtest.h>

#include "baselines/spatial_index.h"
#include "data/generators.h"
#include "data/workload.h"
#include "storage/io_stats.h"

namespace ht {
namespace {

TEST(IoStatsTest, DeltaSubtractsEveryCounter) {
  IoStats before;
  before.logical_reads = 10;
  before.physical_reads = 4;
  before.writes = 2;
  before.allocations = 1;
  before.frees = 0;
  before.evictions = 3;
  IoStats after = before;
  after.logical_reads += 7;
  after.physical_reads += 5;
  after.writes += 1;
  after.allocations += 2;
  after.frees += 4;
  after.evictions += 6;
  IoStats d = after.Delta(before);
  EXPECT_EQ(d.logical_reads, 7u);
  EXPECT_EQ(d.physical_reads, 5u);
  EXPECT_EQ(d.writes, 1u);
  EXPECT_EQ(d.allocations, 2u);
  EXPECT_EQ(d.frees, 4u);
  EXPECT_EQ(d.evictions, 6u);
  d.Reset();
  EXPECT_EQ(d.logical_reads, 0u);
}

/// A minimal SpatialIndex implementation to exercise the interface's
/// defaults: Delete is NotSupported, and page reads are random.
class StubIndex final : public SpatialIndex {
 public:
  StubIndex() : file_(256), pool_(&file_, 0) {}
  std::string Name() const override { return "Stub"; }
  Status Insert(std::span<const float>, uint64_t) override {
    return Status::OK();
  }
  Result<std::vector<uint64_t>> SearchBox(const Box&) override {
    return std::vector<uint64_t>{};
  }
  Result<std::vector<uint64_t>> SearchRange(std::span<const float>, double,
                                            const DistanceMetric&) override {
    return std::vector<uint64_t>{};
  }
  Result<std::vector<std::pair<double, uint64_t>>> SearchKnn(
      std::span<const float>, size_t, const DistanceMetric&) override {
    return std::vector<std::pair<double, uint64_t>>{};
  }
  uint64_t size() const override { return 0; }
  BufferPool& pool() override { return pool_; }

 private:
  MemPagedFile file_;
  BufferPool pool_;
};

TEST(SpatialIndexTest, DefaultsAreNotSupported) {
  StubIndex stub;
  const std::vector<float> p = {0.5f};
  EXPECT_EQ(stub.Delete(p, 1).code(), StatusCode::kNotSupported);
  EXPECT_FALSE(stub.sequential_io());
}

TEST(BoxTest, IntersectionOfDisjointIsEmpty) {
  Box a = Box::FromBounds({0.0f}, {0.4f});
  Box b = Box::FromBounds({0.6f}, {1.0f});
  EXPECT_TRUE(a.Intersection(b).IsEmpty());
  EXPECT_FALSE(a.Intersection(a).IsEmpty());
}

TEST(BoxTest, ZeroDimBoxIsEmpty) {
  Box b;
  EXPECT_EQ(b.dim(), 0u);
  EXPECT_TRUE(b.IsEmpty());
}

TEST(WorkloadTest, CalibrationIsDeterministicGivenSeed) {
  Rng a(3001), b(3001);
  Dataset d1 = GenUniform(3000, 3, a);
  Dataset d2 = GenUniform(3000, 3, b);
  Rng ca(3002), cb(3002);
  EXPECT_DOUBLE_EQ(CalibrateBoxSide(d1, 0.01, 10, ca),
                   CalibrateBoxSide(d2, 0.01, 10, cb));
}

TEST(WorkloadTest, HigherSelectivityNeedsLargerSide) {
  Rng rng(3003);
  Dataset d = GenUniform(5000, 4, rng);
  Rng c1(3004), c2(3004);
  const double small = CalibrateBoxSide(d, 0.005, 15, c1);
  const double large = CalibrateBoxSide(d, 0.05, 15, c2);
  EXPECT_LT(small, large);
}

}  // namespace
}  // namespace ht

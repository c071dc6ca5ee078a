// Property tests for the batched data-page distance kernels
// (DistanceMetric::BatchDistanceWithBound) and for the
// end-to-end identity of the batched query hot path, at every SIMD tier,
// with the brute-force reference answers of data/workload.h.
//
// The batch-kernel contract under test (see geometry/metrics.h):
//  * BatchDistanceWithBound(q, ..., bound, out) writes out[i]
//    bit-identical to Distance(q, row_i) whenever that distance is
//    <= bound; abandoned rows only promise out[i] > bound. Callers may
//    only test out[i] <= bound. At bound = +infinity every row is exact.
//  * No NaNs are produced for finite inputs, including abandoned rows.
//
// The directory-node kernels over dimension-major box sets are held to
// the same standard: batch MINDIST equals MinDistToBox and the overlap
// masks equal Box::Intersects / ContainsBox bit for bit at every tier, and
// the flat index-node view matches the pointer kd tree it replaces on the
// read paths. The dispatch itself: Active() is the forced tier's table,
// or the startup table once no tier is forced.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hybrid_tree.h"
#include "core/node.h"
#include "data/generators.h"
#include "data/workload.h"
#include "geometry/kernels/kernels.h"
#include "geometry/metrics.h"

namespace ht {
namespace {

constexpr size_t kPageSize = 16384;

/// All SIMD tiers this host can run, scalar first.
std::vector<kernels::SimdTier> SupportedTiers() {
  std::vector<kernels::SimdTier> tiers = {kernels::SimdTier::kScalar};
  if (kernels::TierSupported(kernels::SimdTier::kAvx2)) {
    tiers.push_back(kernels::SimdTier::kAvx2);
  }
  if (kernels::TierSupported(kernels::SimdTier::kAvx512)) {
    tiers.push_back(kernels::SimdTier::kAvx512);
  }
  return tiers;
}

/// Forces a tier for the enclosing scope.
class ScopedTier {
 public:
  explicit ScopedTier(kernels::SimdTier tier) { kernels::ForceTier(tier); }
  ~ScopedTier() { kernels::ClearForcedTier(); }
};

/// Builds the metric under test by index (owning pointer so the fixture
/// can sweep heterogeneous metric types).
std::unique_ptr<DistanceMetric> MakeMetric(int which, uint32_t dim) {
  switch (which) {
    case 0:
      return std::make_unique<L1Metric>();
    case 1:
      return std::make_unique<L2Metric>();
    case 2:
      return std::make_unique<LInfMetric>();
    case 3: {
      std::vector<double> w(dim);
      for (uint32_t d = 0; d < dim; ++d) w[d] = 0.25 + 0.1 * d;
      return std::make_unique<WeightedL2Metric>(std::move(w));
    }
    case 4:
      // Generic Lp: exercises the default (virtual per-row) batch path.
      return std::make_unique<LpMetric>(2.5);
    default: {
      // Identity quadratic form: also the default batch path.
      std::vector<double> eye(static_cast<size_t>(dim) * dim, 0.0);
      for (uint32_t d = 0; d < dim; ++d) eye[static_cast<size_t>(d) * dim + d] = 1.0;
      return std::make_unique<QuadraticFormMetric>(dim, std::move(eye));
    }
  }
}

Dataset MakeData(int which, size_t n, uint32_t dim, Rng& rng) {
  switch (which) {
    case 0:
      return GenFourier(n, dim, rng);
    case 1:
      return GenColhist(n, dim, rng);
    default:
      return GenUniform(n, dim, rng);
  }
}

/// Serializes rows of `data` (plus edge rows) into a data page and returns
/// the scan. The query vector is appended as a row too (distance 0 edge).
DataNode FillNode(const Dataset& data, uint32_t dim,
                  const std::vector<float>& query) {
  DataNode node;
  const size_t capacity = DataNode::Capacity(dim, kPageSize);
  const size_t n = std::min(data.size(), capacity - 3);
  for (size_t i = 0; i < n; ++i) {
    const auto row = data.Row(i);
    node.entries.push_back({i, std::vector<float>(row.begin(), row.end())});
  }
  // Edge rows: all-zero, all-one, and an exact copy of the query.
  node.entries.push_back({9000, std::vector<float>(dim, 0.0f)});
  node.entries.push_back({9001, std::vector<float>(dim, 1.0f)});
  node.entries.push_back({9002, query});
  return node;
}

struct KernelCase {
  int metric;
  int dataset;
  uint32_t dim;
};

std::string KernelCaseName(const ::testing::TestParamInfo<KernelCase>& info) {
  static const char* kMetrics[] = {"L1",  "L2",  "LInf",
                                   "WL2", "Lp25", "Quad"};
  static const char* kData[] = {"fourier", "colhist", "uniform"};
  const KernelCase& c = info.param;
  return std::string(kMetrics[c.metric]) + "_" + kData[c.dataset] + "_d" +
         std::to_string(c.dim);
}

class BatchKernelSweep : public ::testing::TestWithParam<KernelCase> {};

TEST_P(BatchKernelSweep, BitIdenticalToScalar) {
  const KernelCase& c = GetParam();
  Rng rng(4242 + c.metric * 7 + c.dataset * 3 + c.dim);
  Dataset data = MakeData(c.dataset, 200, c.dim, rng);
  auto metric = MakeMetric(c.metric, c.dim);

  std::vector<float> query(c.dim);
  for (uint32_t d = 0; d < c.dim; ++d) {
    query[d] = static_cast<float>(rng.NextDouble());
  }

  DataNode node = FillNode(data, c.dim, query);
  std::vector<uint8_t> page(kPageSize);
  node.Serialize(page.data(), kPageSize, c.dim);
  DataPageScan scan(page.data(), kPageSize, c.dim);
  ASSERT_TRUE(scan.ok());
  const size_t n = scan.count();
  ASSERT_EQ(n, node.entries.size());
  const float* blk = scan.block();
  if (blk == nullptr) GTEST_SKIP() << "big-endian host: no block fast path";

  // Scalar reference, computed through the per-row virtual interface
  // (Distance() is plain scalar code at any tier).
  std::vector<double> ref(n);
  for (size_t i = 0; i < n; ++i) ref[i] = metric->Distance(query, scan.vec(i));

  // Every supported SIMD tier must reproduce the scalar results bitwise —
  // the dispatch-tier sweep behind the HT_SIMD contract.
  for (const kernels::SimdTier tier : SupportedTiers()) {
    ScopedTier forced(tier);
    const std::string tag = std::string(" tier ") + kernels::TierName(tier);

    // The kernel at several bounds, including 0, a mid quantile and +inf
    // (where no row is abandoned: every row bit-identical).
    std::vector<double> sorted_ref = ref;
    std::sort(sorted_ref.begin(), sorted_ref.end());
    const double bounds[] = {0.0, sorted_ref[n / 4], sorted_ref[n / 2],
                             sorted_ref[n - 1],
                             std::numeric_limits<double>::infinity()};
    for (double bound : bounds) {
      std::vector<double> bd(n, -1.0);
      metric->BatchDistanceWithBound(query, blk, scan.stride_floats(), n,
                                     bound, bd.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_FALSE(std::isnan(bd[i]))
            << "row " << i << " bound " << bound << tag;
        if (ref[i] <= bound) {
          ASSERT_EQ(std::bit_cast<uint64_t>(bd[i]),
                    std::bit_cast<uint64_t>(ref[i]))
              << "row " << i << " bound " << bound << tag;
        } else {
          ASSERT_GT(bd[i], bound) << "row " << i << tag;
        }
      }
    }
  }
}

TEST_P(BatchKernelSweep, EmptyPageIsANoOp) {
  const KernelCase& c = GetParam();
  auto metric = MakeMetric(c.metric, c.dim);
  DataNode empty;
  std::vector<uint8_t> page(kPageSize);
  empty.Serialize(page.data(), kPageSize, c.dim);
  DataPageScan scan(page.data(), kPageSize, c.dim);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.count(), 0u);
  const std::vector<float> query(c.dim, 0.5f);
  double sentinel = -7.0;
  // n == 0 must not read pts or write out (pts may be null-ish here).
  for (const double bound : {0.5, std::numeric_limits<double>::infinity()}) {
    metric->BatchDistanceWithBound(query, scan.block(), scan.stride_floats(),
                                   0, bound, &sentinel);
  }
  EXPECT_EQ(sentinel, -7.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllMetricsDataDims, BatchKernelSweep,
    ::testing::ValuesIn([] {
      std::vector<KernelCase> cases;
      for (int m = 0; m < 6; ++m) {
        for (int ds = 0; ds < 3; ++ds) {
          // Off the kAbandonBlock grid too (a final partial block), and
          // 64-d. GenFourier makes even dims below 64, GenColhist 4 and up.
          for (uint32_t dim : {1u, 5u, 6u, 8u, 13u, 14u, 16u, 32u, 64u}) {
            if (ds == 0 && (dim % 2 != 0 || dim >= 64)) continue;
            if (ds == 1 && dim < 4) continue;
            cases.push_back({m, ds, dim});
          }
        }
      }
      return cases;
    }()),
    KernelCaseName);

// ---------------------------------------------------------------------------
// End-to-end identity: the tree at every tier vs brute force.
// ---------------------------------------------------------------------------

std::unique_ptr<HybridTree> BuildTree(const Dataset& data, uint32_t dim,
                                      MemPagedFile* file) {
  HybridTreeOptions o;
  o.dim = dim;
  o.page_size = 4096;
  auto tree = HybridTree::Create(o, file).ValueOrDie();
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(tree->Insert(data.Row(i), i).ok());
  }
  return tree;
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Bitwise (distance, id) equality, rank by rank.
void ExpectSameNeighbors(const std::vector<std::pair<double, uint64_t>>& got,
                         const std::vector<std::pair<double, uint64_t>>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].first),
              std::bit_cast<uint64_t>(want[i].first))
        << where << " rank " << i;
    EXPECT_EQ(got[i].second, want[i].second) << where << " rank " << i;
  }
}

TEST(BatchPathByteIdentity, BoxRangeKnnMatchBruteForceAtEveryTier) {
  const uint32_t dim = 16;
  Rng rng(515);
  Dataset data = GenFourier(3000, dim, rng);
  MemPagedFile file(4096);
  auto tree = BuildTree(data, dim, &file);

  struct QuerySet {
    std::vector<float> center;
    Box box;
    double radius;
  };
  std::vector<QuerySet> queries;
  for (int q = 0; q < 25; ++q) {
    std::vector<float> center(dim), lo(dim), hi(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      center[d] = static_cast<float>(rng.NextDouble());
      const float side = static_cast<float>(0.1 + 0.4 * rng.NextDouble());
      lo[d] = center[d] - side;
      hi[d] = center[d] + side;
    }
    const double radius = 0.2 + 0.6 * rng.NextDouble();
    queries.push_back({center, Box::FromBounds(lo, hi), radius});
  }

  L2Metric l2;
  L1Metric l1;
  const DistanceMetric* range_metrics[] = {&l2, &l1};
  // The first tier is scalar; later tiers must reproduce its answers in
  // the tree's own order, not just as sets.
  std::vector<std::vector<uint64_t>> first_tier;
  for (const kernels::SimdTier tier : SupportedTiers()) {
    ScopedTier forced(tier);
    std::vector<std::vector<uint64_t>> answers;
    for (size_t q = 0; q < queries.size(); ++q) {
      const QuerySet& qs = queries[q];
      const std::string where = std::string("tier ") +
                                kernels::TierName(tier) + " query " +
                                std::to_string(q);

      // Box: per-point tests and the scan-level containment shortcut.
      answers.push_back(tree->SearchBox(qs.box).ValueOrDie());
      EXPECT_EQ(Sorted(answers.back()), BruteForceBox(data, qs.box))
          << "box " << where;

      // Range: the bounded kernel (and the code filter at SIMD tiers).
      for (const DistanceMetric* metric : range_metrics) {
        answers.push_back(
            tree->SearchRange(qs.center, qs.radius, *metric).ValueOrDie());
        EXPECT_EQ(Sorted(answers.back()),
                  BruteForceRange(data, qs.center, qs.radius, *metric))
            << metric->Name() << " range " << where;
      }

      // k-NN: bit-identical (distance, id) pairs in identical order.
      for (size_t k : {1u, 10u, 64u}) {
        ExpectSameNeighbors(tree->SearchKnn(qs.center, k, l2).ValueOrDie(),
                            BruteForceKnn(data, qs.center, k, l2),
                            "knn k " + std::to_string(k) + " " + where);
      }
    }

    // The whole space: every leaf is contained, so every data page takes
    // the scan-level "emit everything" shortcut.
    answers.push_back(tree->SearchBox(Box::UnitCube(dim)).ValueOrDie());
    EXPECT_EQ(answers.back().size(), data.size());
    EXPECT_EQ(Sorted(answers.back()),
              BruteForceBox(data, Box::UnitCube(dim)));

    if (first_tier.empty()) {
      first_tier = std::move(answers);
    } else {
      EXPECT_EQ(answers, first_tier) << "tier " << kernels::TierName(tier);
    }
  }
}

// Reference implementations for the box predicates: the plain
// per-dimension ordered-compare loops Box::Intersects / ContainsBox and
// every tier's box_overlap must match boolean-for-boolean (NaN bounds
// included).
bool RefIntersects(const std::vector<float>& alo, const std::vector<float>& ahi,
                   const std::vector<float>& blo,
                   const std::vector<float>& bhi) {
  for (size_t d = 0; d < alo.size(); ++d) {
    if (bhi[d] < alo[d] || blo[d] > ahi[d]) return false;
  }
  return true;
}

bool RefContains(const std::vector<float>& alo, const std::vector<float>& ahi,
                 const std::vector<float>& blo, const std::vector<float>& bhi) {
  for (size_t d = 0; d < alo.size(); ++d) {
    if (blo[d] < alo[d] || bhi[d] > ahi[d]) return false;
  }
  return true;
}

// LInf replaces its running max only by a strictly greater term, so a NaN
// coordinate never becomes the max and never resets it: every tier's batch
// kernel replays that replacement and equals Distance bit for bit. Rows
// fall off in |q - r| with the dimension, so a max reset by the NaN would
// show; one vector group and a tail at either SIMD width.
TEST(BatchKernelNan, LInfSkipsANanCoordinateAtEveryTier) {
  constexpr uint32_t kDim = 13;
  constexpr size_t kRows = 11;
  const LInfMetric linf;
  const std::vector<float> q(kDim, 0.0f);
  std::vector<float> rows(kRows * kDim);
  for (size_t i = 0; i < kRows; ++i) {
    for (uint32_t d = 0; d < kDim; ++d) {
      rows[i * kDim + d] = 1.0f - 0.05f * static_cast<float>(d);
    }
    rows[i * kDim + 1 + i] = std::numeric_limits<float>::quiet_NaN();
  }
  for (const kernels::SimdTier tier : SupportedTiers()) {
    ScopedTier forced(tier);
    std::vector<double> out(kRows, -1.0);
    linf.BatchDistanceWithBound(q, rows.data(), kDim, kRows,
                                std::numeric_limits<double>::infinity(),
                                out.data());
    for (size_t i = 0; i < kRows; ++i) {
      const double want =
          linf.Distance(q, std::span<const float>(&rows[i * kDim], kDim));
      EXPECT_EQ(want, 1.0) << "row " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(out[i]), std::bit_cast<uint64_t>(want))
          << "tier " << kernels::TierName(tier) << " row " << i << " got "
          << out[i];
    }
  }
}

TEST(KernelDispatch, ActiveIsTheForcedOrTheStartupTable) {
  const kernels::KernelTable* startup = &kernels::Active();
  EXPECT_EQ(startup, &kernels::TableForTier(startup->tier));
  for (const kernels::SimdTier tier : SupportedTiers()) {
    const kernels::KernelTable& table = kernels::TableForTier(tier);
    EXPECT_EQ(table.tier, tier);
    EXPECT_NE(table.ctm_box, nullptr);
    {
      ScopedTier forced(tier);
      EXPECT_EQ(&kernels::Active(), &table);
      EXPECT_EQ(kernels::ActiveTier(), tier);
    }
    EXPECT_EQ(&kernels::Active(), startup);
  }
}

// Box::Intersects / ContainsBox must agree with the reference on random
// near-boundary boxes at every dim 1..40, including shared-edge touching,
// containment, emptiness, and NaN bounds.
TEST(BoxPredicateTest, MatchReferenceOnLattice) {
  Rng rng(20260809);
  for (uint32_t dim = 1; dim <= 40; ++dim) {
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<float> alo(dim), ahi(dim), blo(dim), bhi(dim);
      for (uint32_t d = 0; d < dim; ++d) {
        // Draw from a small lattice so exact ties (shared edges) and
        // containment happen often, not almost never.
        const float a0 = static_cast<float>(rng.NextBelow(9)) / 8.0f;
        const float a1 = static_cast<float>(rng.NextBelow(9)) / 8.0f;
        const float b0 = static_cast<float>(rng.NextBelow(9)) / 8.0f;
        const float b1 = static_cast<float>(rng.NextBelow(9)) / 8.0f;
        alo[d] = std::min(a0, a1);
        ahi[d] = std::max(a0, a1);
        blo[d] = std::min(b0, b1);
        bhi[d] = std::max(b0, b1);
      }
      // Mutations: empty interval in one box, NaN bound, exact copy.
      const int mut = rep % 10;
      if (mut == 7) {
        std::swap(blo[dim / 2], bhi[dim / 2]);  // maybe-empty probe box
      } else if (mut == 8) {
        bhi[dim / 2] = std::numeric_limits<float>::quiet_NaN();
      } else if (mut == 9) {
        blo = alo;
        bhi = ahi;
      }
      const Box a = Box::FromBounds(alo, ahi);
      const Box b = Box::FromBounds(blo, bhi);
      EXPECT_EQ(a.Intersects(b), RefIntersects(alo, ahi, blo, bhi))
          << "dim=" << dim << " rep=" << rep;
      EXPECT_EQ(a.ContainsBox(b), RefContains(alo, ahi, blo, bhi))
          << "dim=" << dim << " rep=" << rep;
    }
  }
}

// NaN bounds must never prove disjointness (ordered compares): a box with
// a NaN coordinate intersects and is contained.
TEST(BoxPredicateTest, NanBoundsNeverProveDisjointness) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (uint32_t dim : {1u, 7u, 8u, 9u, 16u, 17u, 33u}) {
    std::vector<float> nlo(dim, 0.25f), nhi(dim, 0.75f);
    nlo[dim - 1] = nan;
    nhi[dim - 1] = nan;
    const Box box = Box::FromBounds(std::vector<float>(dim, 0.25f),
                                    std::vector<float>(dim, 0.75f));
    const Box with_nan = Box::FromBounds(nlo, nhi);
    EXPECT_TRUE(box.Intersects(with_nan)) << "dim=" << dim;
    EXPECT_TRUE(box.ContainsBox(with_nan)) << "dim=" << dim;
  }
}

// ---------------------------------------------------------------------
// Dimension-major box sets: batch MINDIST and overlap kernels, the
// default MinDistToBoxes, and the flat index-node view.

/// A dimension-major box set with kernels::kBoxLanes padding, plus a guard
/// tail on the output buffers so a kernel writing past `stride` shows.
struct SoaBoxes {
  uint32_t dim;
  size_t n;
  size_t stride;
  std::vector<float> lo;
  std::vector<float> hi;

  SoaBoxes(uint32_t dim_in, size_t n_in)
      : dim(dim_in),
        n(n_in),
        stride((n_in + kernels::kBoxLanes - 1) / kernels::kBoxLanes *
               kernels::kBoxLanes),
        lo(dim_in * stride, 0.0f),
        hi(dim_in * stride, 0.0f) {}

  void Set(size_t i, const Box& b) {
    for (uint32_t d = 0; d < dim; ++d) {
      lo[d * stride + i] = b.lo(d);
      hi[d * stride + i] = b.hi(d);
    }
  }
  Box Get(size_t i) const {
    Box b;
    view().Gather(i, &b);
    return b;
  }
  BoxSetView view() const {
    return BoxSetView{lo.data(), hi.data(), dim, stride, n};
  }
};

constexpr float kInfF = std::numeric_limits<float>::infinity();
constexpr float kNanF = std::numeric_limits<float>::quiet_NaN();

/// A coordinate on a 1/8 lattice of [0, 1], so boxes and queries share
/// boundaries exactly and often.
float Lattice(Rng& rng) {
  return static_cast<float>(rng.NextBelow(9)) / 8.0f;
}

/// A random box mixing ordinary intervals with the edge cases the kernels
/// must replay exactly: degenerate (lo == hi), signed zeros, NaN and
/// infinite bounds, and inverted intervals.
Box EdgeBox(uint32_t dim, Rng& rng) {
  static const float kSpecial[] = {-kInfF, -0.0f, 0.0f, kInfF, kNanF, 1.0f};
  std::vector<float> lo(dim), hi(dim);
  for (uint32_t d = 0; d < dim; ++d) {
    const float a = Lattice(rng);
    const float b = Lattice(rng);
    switch (rng.NextBelow(10)) {
      case 0:
        lo[d] = hi[d] = a;  // degenerate
        break;
      case 1:
        lo[d] = kSpecial[rng.NextBelow(6)];
        hi[d] = kSpecial[rng.NextBelow(6)];
        break;
      case 2:
        lo[d] = std::max(a, b);  // inverted (or degenerate)
        hi[d] = std::min(a, b);
        break;
      default:
        lo[d] = std::min(a, b);
        hi[d] = std::max(a, b);
    }
  }
  return Box::FromBounds(lo, hi);
}

/// A query point inside, on the boundary of, or outside [0, 1], with
/// signed zeros.
std::vector<float> EdgeQuery(uint32_t dim, Rng& rng) {
  std::vector<float> q(dim);
  for (uint32_t d = 0; d < dim; ++d) {
    switch (rng.NextBelow(6)) {
      case 0:
        q[d] = -0.0f;
        break;
      case 1:
        q[d] = rng.NextBelow(2) == 0 ? -0.5f : 1.5f;
        break;
      default:
        q[d] = Lattice(rng);
    }
  }
  return q;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

constexpr size_t kBoxCounts[] = {1, 7, 8, 9, 15, 16, 17, 202};
constexpr uint32_t kBoxDims[] = {1, 3, 16, 64};

// Every tier's batch MINDIST must equal the metric's MinDistToBox bit for
// bit on every box, edge bounds included, and must not write past the
// padded stride; the metric's MinDistToBoxes must dispatch to it.
TEST(BoxSetKernelSweep, MinDistMatchesMinDistToBoxBitwise) {
  Rng rng(20261017);
  const L1Metric l1;
  const L2Metric l2;
  const LInfMetric linf;
  const DistanceMetric* metrics[] = {&l1, &l2, &linf};
  constexpr double kGuard = -12345.0;
  for (const uint32_t dim : kBoxDims) {
    for (const size_t n : kBoxCounts) {
      SoaBoxes boxes(dim, n);
      for (size_t i = 0; i < n; ++i) boxes.Set(i, EdgeBox(dim, rng));
      for (int rep = 0; rep < 4; ++rep) {
        std::vector<float> q = EdgeQuery(dim, rng);
        if (rep == 0) {  // on box 0's lower corner
          const Box b0 = boxes.Get(0);
          q.assign(b0.lo().begin(), b0.lo().end());
        }
        for (int m = 0; m < 3; ++m) {
          std::vector<double> want(n);
          for (size_t i = 0; i < n; ++i) {
            want[i] = metrics[m]->MinDistToBox(q, boxes.Get(i));
          }
          for (const kernels::SimdTier tier : SupportedTiers()) {
            const kernels::KernelTable& t = kernels::TableForTier(tier);
            std::vector<double> got(boxes.stride + 8, kGuard);
            t.mindist[m](q.data(), dim, boxes.lo.data(), boxes.hi.data(),
                         boxes.stride, n, got.data());
            std::vector<double> via(boxes.stride + 8, kGuard);
            {
              ScopedTier forced(tier);
              metrics[m]->MinDistToBoxes(q, boxes.view(), via.data());
            }
            for (size_t i = 0; i < n; ++i) {
              EXPECT_TRUE(SameBits(got[i], want[i]))
                  << metrics[m]->Name() << " tier=" << kernels::TierName(tier)
                  << " dim=" << dim << " n=" << n << " box=" << i
                  << " got=" << got[i] << " want=" << want[i];
              EXPECT_TRUE(SameBits(via[i], want[i]))
                  << metrics[m]->Name() << " tier=" << kernels::TierName(tier);
            }
            for (size_t i = boxes.stride; i < got.size(); ++i) {
              EXPECT_EQ(got[i], kGuard) << "wrote past stride";
            }
          }
        }
      }
    }
  }
}

// The overlap pass must report, for exactly the active boxes, the
// Box::Intersects / Box::ContainsBox verdicts with the query as receiver.
TEST(BoxSetKernelSweep, OverlapMasksMatchBoxPredicates) {
  Rng rng(20261018);
  for (const uint32_t dim : kBoxDims) {
    for (const size_t n : kBoxCounts) {
      SoaBoxes boxes(dim, n);
      for (size_t i = 0; i < n; ++i) boxes.Set(i, EdgeBox(dim, rng));
      const size_t words = (n + 63) / 64;
      for (int rep = 0; rep < 6; ++rep) {
        // Query: a lattice box, box 0 itself, or the unit cube.
        std::vector<float> qlo(dim), qhi(dim);
        for (uint32_t d = 0; d < dim; ++d) {
          const float a = Lattice(rng);
          const float b = Lattice(rng);
          qlo[d] = rep == 5 ? 0.0f : std::min(a, b);
          qhi[d] = rep == 5 ? 1.0f : std::max(a, b);
        }
        if (rep == 4) {
          const Box b0 = boxes.Get(0);
          qlo.assign(b0.lo().begin(), b0.lo().end());
          qhi.assign(b0.hi().begin(), b0.hi().end());
        }
        // Active set: all, a random subset, every fifth box, or none.
        std::vector<uint64_t> active(words, 0);
        for (size_t i = 0; i < n; ++i) {
          bool on = true;
          if (rep % 3 == 1) on = rng.NextBelow(2) == 0;
          if (rep % 3 == 2) on = i % 5 == 0;
          if (on) active[i / 64] |= uint64_t{1} << (i % 64);
        }
        if (rep == 2) std::fill(active.begin(), active.end(), 0);
        std::vector<uint64_t> want_int(words, 0), want_con(words, 0);
        for (size_t i = 0; i < n; ++i) {
          const uint64_t bit = uint64_t{1} << (i % 64);
          if ((active[i / 64] & bit) == 0) continue;
          const Box b = boxes.Get(i);
          const std::vector<float> blo(b.lo().begin(), b.lo().end());
          const std::vector<float> bhi(b.hi().begin(), b.hi().end());
          if (RefIntersects(qlo, qhi, blo, bhi)) want_int[i / 64] |= bit;
          if (RefContains(qlo, qhi, blo, bhi)) want_con[i / 64] |= bit;
        }
        for (const kernels::SimdTier tier : SupportedTiers()) {
          const kernels::KernelTable& t = kernels::TableForTier(tier);
          std::vector<uint64_t> got_int(words, ~uint64_t{0});
          std::vector<uint64_t> got_con(words, ~uint64_t{0});
          t.box_overlap(qlo.data(), qhi.data(), dim, boxes.lo.data(),
                        boxes.hi.data(), boxes.stride, n, active.data(),
                        got_int.data(), got_con.data());
          EXPECT_EQ(got_int, want_int) << "tier=" << kernels::TierName(tier)
                                       << " dim=" << dim << " n=" << n
                                       << " rep=" << rep;
          EXPECT_EQ(got_con, want_con) << "tier=" << kernels::TierName(tier)
                                       << " dim=" << dim << " n=" << n
                                       << " rep=" << rep;
        }
      }
    }
  }
}

/// A user-defined metric with no batch override: twice the L1 distance.
class DoubledL1Metric final : public DistanceMetric {
 public:
  double Distance(std::span<const float> a,
                  std::span<const float> b) const override {
    return 2.0 * L1Metric().Distance(a, b);
  }
  double MinDistToBox(std::span<const float> q,
                      const Box& box) const override {
    return 2.0 * L1Metric().MinDistToBox(q, box);
  }
  std::string Name() const override { return "DoubledL1"; }
};

// Metrics without a batch kernel take the default MinDistToBoxes, which
// must reproduce MinDistToBox bit for bit.
TEST(BoxSetKernelSweep, DefaultMinDistToBoxesMatchesPerBox) {
  Rng rng(20261019);
  for (const uint32_t dim : kBoxDims) {
    std::vector<double> w(dim);
    for (uint32_t d = 0; d < dim; ++d) w[d] = 0.25 + 0.1 * d;
    const WeightedL2Metric wl2(w);
    const LpMetric lp3(3.0);
    const DoubledL1Metric user;
    const DistanceMetric* metrics[] = {&wl2, &lp3, &user};
    for (const size_t n : kBoxCounts) {
      SoaBoxes boxes(dim, n);
      for (size_t i = 0; i < n; ++i) boxes.Set(i, EdgeBox(dim, rng));
      const std::vector<float> q = EdgeQuery(dim, rng);
      for (const DistanceMetric* metric : metrics) {
        std::vector<double> got(boxes.stride);
        metric->MinDistToBoxes(q, boxes.view(), got.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_TRUE(SameBits(got[i], metric->MinDistToBox(q, boxes.Get(i))))
              << metric->Name() << " dim=" << dim << " n=" << n
              << " box=" << i;
        }
      }
    }
  }
}

/// A random kd tree over `leaves` children of `region`, mixing clean,
/// overlapping (lsp > rsp) and gapped (lsp < rsp) splits. With `codec`,
/// each leaf carries the ELS code of a random live box inside its region.
std::unique_ptr<KdNode> RandomKd(uint32_t dim, size_t leaves,
                                 const Box& region, const ElsCodec* codec,
                                 Rng& rng, PageId* next) {
  if (leaves == 1) {
    ElsCode els;
    if (codec != nullptr) {
      Box live = region;
      for (uint32_t d = 0; d < dim; ++d) {
        const float a = region.lo(d) + static_cast<float>(rng.NextDouble()) *
                                           region.Extent(d);
        const float b = region.lo(d) + static_cast<float>(rng.NextDouble()) *
                                           region.Extent(d);
        live.set_lo(d, std::min(a, b));
        live.set_hi(d, std::max(a, b));
      }
      els = codec->Encode(live, region);
    }
    return KdNode::MakeLeaf((*next)++, std::move(els));
  }
  auto n = std::make_unique<KdNode>();
  n->split_dim = static_cast<uint32_t>(rng.NextBelow(dim));
  const float pos = Lattice(rng);
  const float shift = 0.0625f * static_cast<float>(rng.NextBelow(3));
  const bool overlap = rng.NextBelow(2) == 0;
  n->lsp = overlap ? pos + shift : pos - shift;
  n->rsp = overlap ? pos - shift : pos + shift;
  const size_t left = 1 + rng.NextBelow(leaves - 1);
  n->left = RandomKd(dim, left, KdLeftBr(region, *n), codec, rng, next);
  n->right =
      RandomKd(dim, leaves - left, KdRightBr(region, *n), codec, rng, next);
  return n;
}

/// The pointer kd walk the flat route replaces (the §3.1 box route).
void PointerRoute(const KdNode* n, const Box& q, std::vector<PageId>* out) {
  if (n->IsLeaf()) {
    out->push_back(n->child);
    return;
  }
  if (q.lo(n->split_dim) <= n->lsp) PointerRoute(n->left.get(), q, out);
  if (q.hi(n->split_dim) >= n->rsp) PointerRoute(n->right.get(), q, out);
}

// The flat view must hold the kd tree's children in preorder leaf order,
// each with its decoded live box, and its array route must reach exactly
// the leaves the pointer walk reaches.
TEST(FlatIndexNodeTest, MatchesPointerKdTree) {
  Rng rng(20261020);
  for (const uint32_t dim : kBoxDims) {
    for (const uint32_t bits : {0u, 4u, 8u}) {
      const ElsCodec codec(dim, bits);
      const ElsCodec* maybe_codec = bits > 0 ? &codec : nullptr;
      for (const size_t leaves : {size_t{1}, size_t{2}, size_t{7},
                                  size_t{17}, size_t{202}}) {
        IndexNode node;
        PageId next = 100;
        node.root = RandomKd(dim, leaves, Box::UnitCube(dim), maybe_codec,
                             rng, &next);
        const FlatIndexNode flat(node, dim, maybe_codec);
        std::vector<ChildRef> kids;
        node.CollectChildren(Box::UnitCube(dim), &kids);
        ASSERT_EQ(flat.num_children(), kids.size());
        ASSERT_EQ(flat.kd_nodes().size(), kids.size() - 1);
        const BoxSetView live = flat.live_boxes();
        EXPECT_EQ(live.count, kids.size());
        EXPECT_EQ(live.stride % kernels::kBoxLanes, 0u);
        for (size_t i = 0; i < kids.size(); ++i) {
          EXPECT_EQ(flat.child(i), kids[i].leaf->child);
          const Box want = maybe_codec != nullptr
                               ? codec.Decode(kids[i].leaf->els, kids[i].kd_br)
                               : kids[i].kd_br;
          Box got;
          live.Gather(i, &got);
          EXPECT_EQ(got, want) << "dim=" << dim << " bits=" << bits
                               << " leaf=" << i;
        }
        for (const FlatKdNode& k : flat.kd_nodes()) {
          EXPECT_LT(k.begin, k.mid);
          EXPECT_LT(k.mid, k.end);
          EXPECT_LE(k.end, kids.size());
        }
        std::vector<uint64_t> reached((kids.size() + 63) / 64, ~uint64_t{0});
        for (int rep = 0; rep < 20; ++rep) {
          std::vector<float> lo(dim), hi(dim);
          for (uint32_t d = 0; d < dim; ++d) {
            const float a = Lattice(rng);
            const float b = Lattice(rng);
            lo[d] = std::min(a, b);
            hi[d] = std::max(a, b);
          }
          const Box q = Box::FromBounds(lo, hi);
          std::vector<PageId> want;
          PointerRoute(node.root.get(), q, &want);
          flat.RouteBox(q, reached.data());
          std::vector<PageId> got;
          for (size_t i = 0; i < kids.size(); ++i) {
            if ((reached[i / 64] >> (i % 64)) & 1) got.push_back(flat.child(i));
          }
          EXPECT_EQ(got, want) << "dim=" << dim << " leaves=" << leaves
                               << " rep=" << rep;
        }
      }
    }
  }
}

// Satellite: Lp metric names are trimmed ("L2", not "L2.000000").
TEST(MetricNameTest, LpNamesAreTrimmed) {
  EXPECT_EQ(LpMetric(2.0).Name(), "L2");
  EXPECT_EQ(LpMetric(1.0).Name(), "L1");
  EXPECT_EQ(LpMetric(2.5).Name(), "L2.5");
}

}  // namespace
}  // namespace ht

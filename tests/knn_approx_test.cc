// Tests for the approximate k-NN knobs (epsilon, leaf-visit budgets) and
// the bound-carrying KnnCursor:
//
//  * Exact-mode identity: default KnnSearchLimits / KnnCursorOptions are
//    byte-identical to the pre-existing exact paths at every SIMD tier.
//  * The (1+epsilon) guarantee against brute force, and monotone recall
//    as epsilon grows.
//  * Exact leaf-visit budget accounting (batch and cursor), including the
//    early_terminated flag semantics; the batch search's answer and
//    accounting are those of the limit-k cursor it drains.
//  * Sharded approximate search: deterministic under any pool size and
//    under concurrent callers, and identical to the unsharded bounded
//    search at a fixed per-shard budget.
//  * Sidecar gating: metrics without a code-space bound (QuadraticForm)
//    build no sidecars; cursor scans charge the same IoStats scan
//    counters as every other search.
//  * Server recall tiers: tenant defaults apply, per-request overrides
//    win, an epsilon that is NaN, infinite or negative is refused, and
//    the k-NN accounting reaches MetricsSnapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/bulk_load.h"
#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"
#include "exec/thread_pool.h"
#include "geometry/kernels/kernels.h"
#include "geometry/metrics.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "storage/paged_file.h"

namespace ht {
namespace {

constexpr uint32_t kDim = 16;
constexpr size_t kPoints = 4000;
constexpr size_t kK = 10;
constexpr size_t kQueries = 20;

std::vector<kernels::SimdTier> SupportedTiers() {
  std::vector<kernels::SimdTier> tiers;
  for (kernels::SimdTier t :
       {kernels::SimdTier::kScalar, kernels::SimdTier::kAvx2,
        kernels::SimdTier::kAvx512}) {
    if (kernels::TierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

class ScopedTier {
 public:
  explicit ScopedTier(kernels::SimdTier tier) { kernels::ForceTier(tier); }
  ~ScopedTier() { kernels::ClearForcedTier(); }
};

struct Fixture {
  MemPagedFile file{4096};
  std::unique_ptr<HybridTree> tree;
  Dataset data;
  std::vector<std::vector<float>> centers;

  explicit Fixture(bool quant = true) {
    Rng rng(20260809);
    data = GenFourier(kPoints, kDim, rng);
    HybridTreeOptions o;
    o.dim = kDim;
    o.page_size = 4096;
    o.quant_sidecars = quant;
    tree = BulkLoad(o, &file, data, BulkLoadOptions{}).ValueOrDie();
    centers = MakeQueryCenters(data, kQueries, rng);
  }
};

double RecallAtK(const std::vector<std::pair<double, uint64_t>>& got,
                 const std::vector<std::pair<double, uint64_t>>& truth) {
  std::set<uint64_t> want;
  for (const auto& [d, id] : truth) want.insert(id);
  size_t hits = 0;
  for (const auto& [d, id] : got) hits += want.count(id);
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

// --- exact-mode identity ----------------------------------------------------

TEST(KnnApproxExactMode, BoundedSearchIsByteIdenticalAcrossTiers) {
  Fixture f;
  L2Metric l2;
  for (const kernels::SimdTier tier : SupportedTiers()) {
    ScopedTier forced(tier);
    for (const auto& c : f.centers) {
      auto want = f.tree->SearchKnn(c, kK, l2).ValueOrDie();
      SearchScratch scratch;
      std::vector<std::pair<double, uint64_t>> got;
      KnnSearchInfo info;
      ASSERT_TRUE(f.tree
                      ->SearchKnnBoundedInto(c, kK, l2, KnnSearchLimits{},
                                             &scratch, &got, &info)
                      .ok());
      EXPECT_EQ(got, want) << "tier " << kernels::TierName(tier);
      EXPECT_FALSE(info.early_terminated);
      EXPECT_GT(info.leaf_visits, 0u);
    }
  }
}

TEST(KnnApproxExactMode, BoundCarryingCursorIsByteIdenticalAcrossTiers) {
  Fixture f;
  L2Metric l2;
  for (const kernels::SimdTier tier : SupportedTiers()) {
    ScopedTier forced(tier);
    for (const auto& c : f.centers) {
      auto want = f.tree->SearchKnn(c, kK, l2).ValueOrDie();
      // Plain cursor (no options) and bound-carrying cursor (limit = k)
      // must both reproduce the exact stream prefix bit for bit.
      auto plain = f.tree->OpenKnnCursor(c, l2);
      KnnCursorOptions copts;
      copts.limit = kK;
      auto bounded = f.tree->OpenKnnCursor(c, l2, copts);
      for (size_t i = 0; i < want.size(); ++i) {
        auto p = plain.Next().ValueOrDie();
        auto b = bounded.Next().ValueOrDie();
        ASSERT_TRUE(p.has_value() && b.has_value()) << i;
        EXPECT_EQ(*p, want[i]) << "plain, tier " << kernels::TierName(tier);
        EXPECT_EQ(*b, want[i]) << "bounded, tier " << kernels::TierName(tier);
      }
      EXPECT_FALSE(bounded.early_terminated());
    }
  }
}

// --- the (1+epsilon) guarantee ---------------------------------------------

TEST(KnnApproxEpsilon, GuaranteeHoldsAndRecallIsMonotone) {
  Fixture f;
  L2Metric l2;
  const double epsilons[] = {0.0, 0.1, 0.5, 1.0, 2.0};
  std::vector<double> recalls;
  std::vector<uint64_t> visits;
  for (const double epsilon : epsilons) {
    double recall_sum = 0.0;
    uint64_t visit_sum = 0;
    for (const auto& c : f.centers) {
      auto want = BruteForceKnn(f.data, c, kK, l2);
      SearchScratch scratch;
      std::vector<std::pair<double, uint64_t>> got;
      KnnSearchInfo info;
      KnnSearchLimits limits;
      limits.epsilon = epsilon;
      ASSERT_TRUE(f.tree
                      ->SearchKnnBoundedInto(c, kK, l2, limits, &scratch,
                                             &got, &info)
                      .ok());
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_LE(got[i].first, (1.0 + epsilon) * want[i].first + 1e-12)
            << "epsilon " << epsilon << " rank " << i;
      }
      recall_sum += RecallAtK(got, want);
      visit_sum += info.leaf_visits;
    }
    recalls.push_back(recall_sum / kQueries);
    visits.push_back(visit_sum);
  }
  EXPECT_EQ(recalls[0], 1.0);  // epsilon 0 is exact
  for (size_t i = 1; i < recalls.size(); ++i) {
    EXPECT_LE(recalls[i], recalls[i - 1] + 1e-12)
        << "recall must not increase with epsilon";
    EXPECT_LE(visits[i], visits[i - 1]) << "work must not grow with epsilon";
  }
}

TEST(KnnApproxEpsilon, CursorHonorsTheGuarantee) {
  Fixture f;
  L2Metric l2;
  const double epsilon = 0.5;
  for (const auto& c : f.centers) {
    auto want = BruteForceKnn(f.data, c, kK, l2);
    KnnCursorOptions copts;
    copts.limit = kK;
    copts.epsilon = epsilon;
    auto cursor = f.tree->OpenKnnCursor(c, l2, copts);
    double prev = -1.0;
    for (size_t i = 0; i < kK; ++i) {
      auto next = cursor.Next().ValueOrDie();
      ASSERT_TRUE(next.has_value()) << i;
      EXPECT_GE(next->first, prev);  // still ascending
      prev = next->first;
      EXPECT_LE(next->first, (1.0 + epsilon) * want[i].first + 1e-12) << i;
    }
  }
}

// --- leaf-visit budgets -----------------------------------------------------

TEST(KnnApproxBudget, BatchAccountingIsExact) {
  Fixture f;
  L2Metric l2;
  for (const auto& c : f.centers) {
    auto want = f.tree->SearchKnn(c, kK, l2).ValueOrDie();
    SearchScratch scratch;
    std::vector<std::pair<double, uint64_t>> got;
    KnnSearchInfo info;
    ASSERT_TRUE(f.tree
                    ->SearchKnnBoundedInto(c, kK, l2, KnnSearchLimits{},
                                           &scratch, &got, &info)
                    .ok());
    const uint64_t natural = info.leaf_visits;
    ASSERT_GT(natural, 2u);

    // A budget below the natural visit count is consumed exactly and
    // reported as an early termination.
    for (const uint64_t budget : {uint64_t{1}, natural / 2, natural - 1}) {
      KnnSearchLimits limits;
      limits.max_leaf_visits = budget;
      ASSERT_TRUE(f.tree
                      ->SearchKnnBoundedInto(c, kK, l2, limits, &scratch,
                                             &got, &info)
                      .ok());
      EXPECT_EQ(info.leaf_visits, budget);
      EXPECT_TRUE(info.early_terminated) << "budget " << budget;
      EXPECT_EQ(got.size(), want.size());
    }

    // A budget at or above the natural count changes nothing.
    for (const uint64_t budget : {natural, natural + 100}) {
      KnnSearchLimits limits;
      limits.max_leaf_visits = budget;
      ASSERT_TRUE(f.tree
                      ->SearchKnnBoundedInto(c, kK, l2, limits, &scratch,
                                             &got, &info)
                      .ok());
      EXPECT_EQ(info.leaf_visits, natural);
      EXPECT_FALSE(info.early_terminated) << "budget " << budget;
      EXPECT_EQ(got, want);
    }
  }
}

TEST(KnnApproxBudget, CursorConsumesItsBudgetThenDrainsMaterialized) {
  Fixture f;
  L2Metric l2;
  const size_t budget = 3;
  // Budget only, then budget with epsilon: the batch search drains the
  // same limit-k cursor, so its answer and accounting are the cursor's.
  for (const double epsilon : {0.0, 0.5}) {
    KnnSearchLimits limits;
    limits.epsilon = epsilon;
    limits.max_leaf_visits = budget;
    SearchScratch scratch;
    std::vector<std::pair<double, uint64_t>> want;
    KnnSearchInfo info;
    ASSERT_TRUE(f.tree
                    ->SearchKnnBoundedInto(f.centers[0], kK, l2, limits,
                                           &scratch, &want, &info)
                    .ok());

    KnnCursorOptions copts;
    copts.limit = kK;
    copts.epsilon = epsilon;
    copts.max_leaf_visits = budget;
    auto cursor = f.tree->OpenKnnCursor(f.centers[0], l2, copts);
    std::vector<std::pair<double, uint64_t>> got;
    double prev = -1.0;
    size_t yielded = 0;
    for (;;) {
      auto next = cursor.Next().ValueOrDie();
      if (!next.has_value()) break;
      EXPECT_GE(next->first, prev);
      prev = next->first;
      if (got.size() < kK) got.push_back(*next);
      ++yielded;
    }
    EXPECT_EQ(cursor.leaf_visits(), budget) << "epsilon " << epsilon;
    EXPECT_TRUE(cursor.early_terminated()) << "epsilon " << epsilon;
    EXPECT_GT(yielded, 0u);
    EXPECT_EQ(got, want) << "epsilon " << epsilon;
    EXPECT_EQ(cursor.leaf_visits(), info.leaf_visits) << "epsilon " << epsilon;
    EXPECT_EQ(cursor.early_terminated(), info.early_terminated)
        << "epsilon " << epsilon;
  }
}

// --- sharded approximate search --------------------------------------------

TEST(KnnApproxSharded, MatchesUnshardedAtFixedPerShardBudget) {
  Fixture f;
  L2Metric l2;
  const size_t budget = 6;
  ShardedIndexOptions so;
  so.shards = 1;  // one shard: the per-shard budget IS the budget
  auto index = ShardedIndex::Build(
                   HybridTreeOptions{.dim = kDim, .page_size = 4096}, so,
                   f.data, nullptr)
                   .ValueOrDie();
  ExecOptions exec;
  exec.knn_max_leaf_visits = budget;
  for (const auto& c : f.centers) {
    SearchScratch scratch;
    std::vector<std::pair<double, uint64_t>> want;
    KnnSearchLimits limits;
    limits.max_leaf_visits = budget;
    ASSERT_TRUE(
        f.tree->SearchKnnBoundedInto(c, kK, l2, limits, &scratch, &want)
            .ok());
    std::sort(want.begin(), want.end());
    std::vector<std::pair<double, uint64_t>> got;
    ASSERT_TRUE(index->SearchKnn(c, kK, l2, exec, &got).ok());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
  }
}

TEST(KnnApproxSharded, BudgetedResultsAreDeterministicAcrossPools) {
  Fixture f;
  L2Metric l2;
  ShardedIndexOptions so;
  so.shards = 3;
  auto index = ShardedIndex::Build(
                   HybridTreeOptions{.dim = kDim, .page_size = 4096}, so,
                   f.data, nullptr)
                   .ValueOrDie();
  ExecOptions exec;
  exec.knn_max_leaf_visits = 9;  // ceil(9/3) = 3 leaves per shard
  exec.knn_epsilon = 0.25;
  KnnExecStats stats;
  exec.knn_stats = &stats;

  // Reference run: inline scatter (no pool).
  std::vector<std::vector<std::pair<double, uint64_t>>> ref;
  for (const auto& c : f.centers) {
    std::vector<std::pair<double, uint64_t>> got;
    ASSERT_TRUE(index->SearchKnn(c, kK, l2, exec, &got).ok());
    ref.push_back(std::move(got));
  }
  EXPECT_GT(stats.leaf_visits, 0u);
  EXPECT_LE(stats.leaf_visits, uint64_t{3} * 3 * kQueries);
  EXPECT_GT(stats.early_terminations, 0u);

  // Budgeted + epsilon results must not depend on scatter interleaving:
  // every pool size, twice each, yields the identical answer.
  for (const size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
    ThreadPool pool(threads);
    index->set_pool(&pool);
    for (int round = 0; round < 2; ++round) {
      for (size_t i = 0; i < f.centers.size(); ++i) {
        std::vector<std::pair<double, uint64_t>> got;
        ASSERT_TRUE(index->SearchKnn(f.centers[i], kK, l2, exec, &got).ok());
        EXPECT_EQ(got, ref[i])
            << threads << " threads, round " << round << ", query " << i;
      }
    }
    index->set_pool(nullptr);
  }

  // Concurrent callers on a 4-worker pool: whether a request gets helpers
  // (and which thread runs which shard) now depends on load. Budgeted
  // only, epsilon only, and both must each equal the null-pool answer.
  std::vector<ExecOptions> tiers(3);
  tiers[0].knn_max_leaf_visits = 9;
  tiers[1].knn_epsilon = 0.25;
  tiers[2].knn_max_leaf_visits = 9;
  tiers[2].knn_epsilon = 0.25;
  std::vector<std::vector<std::vector<std::pair<double, uint64_t>>>> want;
  for (const ExecOptions& tier : tiers) {
    auto& per_query = want.emplace_back();
    for (const auto& c : f.centers) {
      std::vector<std::pair<double, uint64_t>> got;
      ASSERT_TRUE(index->SearchKnn(c, kK, l2, tier, &got).ok());
      per_query.push_back(std::move(got));
    }
  }
  ThreadPool pool(4);
  index->set_pool(&pool);
  constexpr size_t kCallers = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      std::vector<std::pair<double, uint64_t>> got;
      for (int round = 0; round < 3; ++round) {
        for (size_t q = 0; q < f.centers.size(); ++q) {
          // Callers start at different queries and tiers, so different
          // requests overlap.
          const size_t i = (q + t * 5) % f.centers.size();
          for (size_t k = 0; k < tiers.size(); ++k) {
            const size_t ti = (k + t) % tiers.size();
            const ExecOptions& e = tiers[ti];
            if (!index->SearchKnn(f.centers[i], kK, l2, e, &got).ok() ||
                got != want[ti][i]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  index->set_pool(nullptr);
  EXPECT_EQ(mismatches.load(), 0u);
}

// --- sidecar gating and cursor I/O accounting -------------------------------

TEST(KnnApproxSidecars, MetricsWithoutCodeBoundsBuildNoSidecars) {
  // Sidecars only engage on SIMD tiers, so pin the best one (HT_SIMD may
  // have selected the scalar tier at startup).
  if (kernels::BestSupportedTier() == kernels::SimdTier::kScalar) {
    GTEST_SKIP() << "quant filter disabled at scalar tier";
  }
  ScopedTier forced(kernels::BestSupportedTier());
  Fixture f(/*quant=*/true);
  std::vector<double> eye(kDim * kDim, 0.0);
  for (uint32_t d = 0; d < kDim; ++d) eye[d * kDim + d] = 1.0;
  QuadraticFormMetric qf(kDim, std::move(eye));
  ASSERT_FALSE(qf.SupportsCodeFilter());
  (void)f.tree->SearchKnn(f.centers[0], kK, qf).ValueOrDie();
  // The capability check short-circuits BEFORE QuantStore::GetOrBuild, so
  // a quadratic-form-only workload caches no useless sidecar pages.
  EXPECT_EQ(f.tree->CachedQuantPages(), 0u);

  L2Metric l2;
  ASSERT_TRUE(l2.SupportsCodeFilter());
  (void)f.tree->SearchKnn(f.centers[0], kK, l2).ValueOrDie();
  EXPECT_GT(f.tree->CachedQuantPages(), 0u);
}

TEST(KnnApproxSidecars, CursorScansChargeSharedScanCounters) {
  if (kernels::BestSupportedTier() == kernels::SimdTier::kScalar) {
    GTEST_SKIP() << "quant filter disabled at scalar tier";
  }
  ScopedTier forced(kernels::BestSupportedTier());
  Fixture f(/*quant=*/true);
  L2Metric l2;
  f.tree->pool().ResetStats();

  // Drain well past k so the self-bound engages (it is +inf until `limit`
  // entries have been enqueued).
  KnnCursorOptions copts;
  copts.limit = kK;
  for (const auto& c : f.centers) {
    auto cursor = f.tree->OpenKnnCursor(c, l2, copts);
    for (size_t i = 0; i < kK; ++i) {
      ASSERT_TRUE(cursor.Next().ValueOrDie().has_value());
    }
  }
  // The cursor runs the same data-page scan as every other search, so it
  // charges the same counters.
  const IoStats after_cursor = f.tree->pool().stats();
  EXPECT_GT(after_cursor.scan_points, 0u);
  EXPECT_GT(after_cursor.quant_pruned, 0u);
  EXPECT_GT(after_cursor.QuantPruneRate(), 0.0);
  EXPECT_LE(after_cursor.quant_refined + after_cursor.quant_pruned,
            after_cursor.scan_points);

  // A batch k-NN over the same tree adds to the same counters.
  (void)f.tree->SearchKnn(f.centers[0], kK, l2).ValueOrDie();
  const IoStats after_batch = f.tree->pool().stats();
  EXPECT_GT(after_batch.scan_points, after_cursor.scan_points);
}

// --- server recall tiers ----------------------------------------------------

TEST(KnnApproxServer, TenantTiersOverridesAndMetrics) {
  Rng rng(20260809);
  Dataset data = GenFourier(kPoints, kDim, rng);
  auto centers = MakeQueryCenters(data, kQueries, rng);
  L2Metric l2;
  ShardedIndexOptions so;
  so.shards = 2;
  auto index = ShardedIndex::Build(
                   HybridTreeOptions{.dim = kDim, .page_size = 4096}, so,
                   data, nullptr)
                   .ValueOrDie();
  Server server(index.get());

  // "fast" runs a budgeted approximate tier; "exact" is unconfigured.
  TenantQuota fast;
  fast.knn_epsilon = 0.5;
  fast.knn_max_leaf_visits = 4;
  server.SetQuota("fast", fast);

  std::vector<std::vector<std::pair<double, uint64_t>>> exact_ref;
  for (const auto& c : centers) {
    Request r;
    r.tenant = "exact";
    r.query = Query::MakeKnn(c, kK);
    r.metric = &l2;
    QueryResult res = server.Execute(r);
    ASSERT_TRUE(res.status.ok());
    exact_ref.push_back(std::move(res.neighbors));
  }
  for (const auto& c : centers) {
    Request r;
    r.tenant = "fast";
    r.query = Query::MakeKnn(c, kK);
    r.metric = &l2;
    QueryResult res = server.Execute(r);
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.neighbors.size(), kK);
  }
  // Snapshot before the override phase: the budgeted tenant has done
  // strictly less k-NN work per query than the exact one so far.
  {
    MetricsSnapshot mid = server.Snapshot();
    ASSERT_EQ(mid.tenants.size(), 2u);
    const TenantMetrics& fast_mid =
        mid.tenants[0].tenant == "fast" ? mid.tenants[0] : mid.tenants[1];
    const TenantMetrics& exact_mid =
        mid.tenants[0].tenant == "exact" ? mid.tenants[0] : mid.tenants[1];
    EXPECT_GT(fast_mid.knn_leaf_visits, 0u);
    EXPECT_LT(fast_mid.knn_leaf_visits, exact_mid.knn_leaf_visits);
  }

  // A per-request override restores exact results on the fast tenant.
  for (size_t i = 0; i < centers.size(); ++i) {
    Request r;
    r.tenant = "fast";
    r.query = Query::MakeKnn(centers[i], kK);
    r.metric = &l2;
    r.has_recall_override = true;  // epsilon 0, unlimited visits
    QueryResult res = server.Execute(r);
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.neighbors, exact_ref[i]) << "override, query " << i;
  }

  MetricsSnapshot snap = server.Snapshot();
  ASSERT_EQ(snap.tenants.size(), 2u);
  const TenantMetrics& fast_m =
      snap.tenants[0].tenant == "fast" ? snap.tenants[0] : snap.tenants[1];
  const TenantMetrics& exact_m =
      snap.tenants[0].tenant == "exact" ? snap.tenants[0] : snap.tenants[1];
  EXPECT_GT(exact_m.knn_leaf_visits, 0u);
  EXPECT_EQ(exact_m.knn_early_terminations, 0u);
  EXPECT_GT(fast_m.knn_leaf_visits, 0u);
  EXPECT_GT(fast_m.knn_early_terminations, 0u);
  // Override requests ran exact: they added no early terminations.
  EXPECT_LE(fast_m.knn_early_terminations, uint64_t{2} * kQueries);
  // The code filter runs at SIMD tiers only (HT_SIMD may pick scalar).
  if (kernels::ActiveTier() != kernels::SimdTier::kScalar) {
    EXPECT_GT(fast_m.quant_prune_rate, 0.0);
  }

  server.ResetMetrics();
  snap = server.Snapshot();
  for (const TenantMetrics& t : snap.tenants) {
    EXPECT_EQ(t.knn_leaf_visits, 0u);
    EXPECT_EQ(t.knn_early_terminations, 0u);
  }

  // An override epsilon that is NaN, infinite or negative is refused, and
  // the server still answers the next request exactly.
  for (const double epsilon : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -0.5}) {
    Request r;
    r.tenant = "fast";
    r.query = Query::MakeKnn(centers[0], kK);
    r.metric = &l2;
    r.has_recall_override = true;
    r.knn_epsilon = epsilon;
    EXPECT_TRUE(server.Execute(r).status.IsInvalidArgument()) << epsilon;
  }
  Request r;
  r.tenant = "exact";
  r.query = Query::MakeKnn(centers[0], kK);
  r.metric = &l2;
  QueryResult res = server.Execute(r);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.neighbors, exact_ref[0]);
}

}  // namespace
}  // namespace ht

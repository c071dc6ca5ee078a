// Serving front door: admission control (token bucket + bounded
// in-flight), Server deadline propagation of the REMAINING budget, and
// the metrics snapshot — in particular that rejected (rate overload,
// turned away) and expired (deadline burned in queue or scatter) are
// distinguishable counters.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "data/workload.h"
#include "exec/latency.h"
#include "exec/thread_pool.h"
#include "geometry/metrics.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "serve/sharded_index.h"

namespace ht {
namespace {

// ---------------------------------------------------------------------
// AdmissionGate: one tenant's token bucket and in-flight count

TEST(AdmissionTest, TokenBucketRejectsRateOverloadImmediately) {
  double now = 100.0;
  AdmissionGate gate([&] { return now; });
  TenantQuota quota;
  quota.rate_qps = 10.0;
  quota.burst = 2.0;
  gate.SetQuota(quota);

  EXPECT_TRUE(gate.Admit().ok());  // bucket starts full: 2 tokens
  EXPECT_TRUE(gate.Admit().ok());
  auto third = gate.Admit();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);

  now += 0.11;  // just over one token at 10 qps (0.10 exactly is FP-fragile)
  EXPECT_TRUE(gate.Admit().ok());
  auto again = gate.Admit();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kResourceExhausted);
}

TEST(AdmissionTest, UnconfiguredGateIsUnlimited) {
  AdmissionGate gate;
  for (int i = 0; i < 100; ++i) {
    auto r = gate.Admit();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie().queue_wait_seconds(), 0.0);
  }
}

TEST(AdmissionTest, InFlightSlotQueuesAndReportsWait) {
  AdmissionGate gate;
  TenantQuota quota;
  quota.max_in_flight = 1;
  gate.SetQuota(quota);

  auto first = gate.Admit();
  ASSERT_TRUE(first.ok());

  // Second admission must wait until the first ticket releases its slot.
  std::atomic<bool> second_admitted{false};
  double waited = -1.0;
  std::thread blocked([&] {
    auto second = gate.Admit(/*max_wait_seconds=*/5.0);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    waited = second.ValueOrDie().queue_wait_seconds();
    second_admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_admitted.load());
  first.ValueOrDie().Release();
  blocked.join();
  EXPECT_TRUE(second_admitted.load());
  EXPECT_GE(waited, 0.03);  // it measurably queued behind the slot
}

TEST(AdmissionTest, InFlightTimeoutExpiresNotRejects) {
  AdmissionGate gate;
  TenantQuota quota;
  quota.max_in_flight = 1;
  gate.SetQuota(quota);

  auto held = gate.Admit();
  ASSERT_TRUE(held.ok());
  auto timed_out = gate.Admit(/*max_wait_seconds=*/0.02);
  ASSERT_FALSE(timed_out.ok());
  // Queue timeout is a deadline event, distinct from rate rejection.
  EXPECT_TRUE(timed_out.status().IsDeadlineExceeded())
      << timed_out.status().ToString();
}

TEST(AdmissionTest, TicketReleaseIsIdempotentAndMoveSafe) {
  AdmissionGate gate;
  TenantQuota quota;
  quota.max_in_flight = 1;
  gate.SetQuota(quota);
  {
    auto a = gate.Admit();
    ASSERT_TRUE(a.ok());
    AdmissionTicket moved = std::move(a.ValueOrDie());
    moved.Release();
    moved.Release();  // no double-release of the slot
  }
  // Slot is free again.
  EXPECT_TRUE(gate.Admit().ok());
}

// ---------------------------------------------------------------------
// RemainingBudget: the satellite-3 rule, unit-tested directly.

TEST(RemainingBudgetTest, ZeroBudgetMeansNoDeadline) {
  EXPECT_EQ(Server::RemainingBudget(0.0, 0.5), 0.0);
  EXPECT_EQ(Server::RemainingBudget(-1.0, 0.5), 0.0);
}

TEST(RemainingBudgetTest, SubtractsQueueingDelay) {
  EXPECT_DOUBLE_EQ(Server::RemainingBudget(1.0, 0.3), 0.7);
  EXPECT_DOUBLE_EQ(Server::RemainingBudget(1.0, 0.0), 1.0);
}

TEST(RemainingBudgetTest, OverspentBudgetGoesNonPositive) {
  EXPECT_LE(Server::RemainingBudget(0.1, 0.2), 0.0);
  EXPECT_LE(Server::RemainingBudget(0.1, 0.1), 0.0);
}

// ---------------------------------------------------------------------
// Server end-to-end

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    data_ = GenFourier(1200, 8, rng);
    opts_.dim = 8;
    ShardedIndexOptions so;
    so.shards = 3;
    auto index_r = ShardedIndex::Build(opts_, so, data_, nullptr);
    ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
    index_ = std::move(index_r).ValueUnsafe();

    auto centers = MakeQueryCenters(data_, 4, rng);
    center_.assign(centers[0].begin(), centers[0].end());
    side_ = CalibrateBoxSide(data_, 0.01, 8, rng);
  }

  Request KnnRequest(const std::string& tenant) const {
    Request r;
    r.tenant = tenant;
    r.query = Query::MakeKnn(center_, 5);
    r.metric = &metric_;
    return r;
  }

  Dataset data_;
  HybridTreeOptions opts_;
  std::unique_ptr<ShardedIndex> index_;
  L2Metric metric_;
  std::vector<float> center_;
  double side_ = 0.0;
};

TEST_F(ServerTest, ExecutesAllQueryTypes) {
  Server server(index_.get());
  Request box;
  box.tenant = "a";
  box.query = Query::MakeBox(MakeBoxQuery(center_, side_));
  QueryResult r = server.Execute(box);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();

  Request range;
  range.tenant = "a";
  range.query = Query::MakeRange(center_, 0.5);
  range.metric = &metric_;
  r = server.Execute(range);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();

  r = server.Execute(KnnRequest("a"));
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.neighbors.size(), 5u);
  EXPECT_EQ(r.neighbors, BruteForceKnn(data_, center_, 5, metric_));
}

// A k-NN center of the wrong dimensionality is refused at the request
// boundary instead of aborting the process inside a shard cursor.
TEST_F(ServerTest, KnnWithWrongDimensionIsInvalidArgument) {
  Server server(index_.get());
  for (const size_t dim : {size_t{0}, size_t{7}, size_t{9}}) {
    Request r = KnnRequest("a");
    r.query = Query::MakeKnn(std::vector<float>(dim, 0.5f), 5);
    const QueryResult res = server.Execute(r);
    EXPECT_TRUE(res.status.IsInvalidArgument())
        << "dim=" << dim << ": " << res.status.ToString();
    EXPECT_TRUE(res.neighbors.empty());
  }
  // The server still answers afterwards.
  EXPECT_TRUE(server.Execute(KnnRequest("a")).status.ok());
}

// A huge k must not size any buffer by k: every row comes back, in order.
TEST_F(ServerTest, KnnWithHugeKReturnsEveryRow) {
  Server server(index_.get());
  Request r = KnnRequest("a");
  r.query = Query::MakeKnn(center_, size_t{1} << 40);
  const QueryResult res = server.Execute(r);
  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  EXPECT_EQ(res.neighbors,
            BruteForceKnn(data_, center_, data_.size(), metric_));
}

TEST_F(ServerTest, RateOverloadCountsAsRejectedNotExpired) {
  Server server(index_.get());
  TenantQuota quota;
  quota.rate_qps = 1e-6;  // effectively never refills
  quota.burst = 1.0;
  server.SetQuota("limited", quota);

  EXPECT_TRUE(server.Execute(KnnRequest("limited")).status.ok());
  QueryResult second = server.Execute(KnnRequest("limited"));
  EXPECT_EQ(second.status.code(), StatusCode::kResourceExhausted);

  MetricsSnapshot snap = server.Snapshot();
  ASSERT_EQ(snap.tenants.size(), 1u);
  EXPECT_EQ(snap.tenants[0].tenant, "limited");
  EXPECT_EQ(snap.tenants[0].completed, 1u);
  EXPECT_EQ(snap.tenants[0].rejected, 1u);  // the distinguishable signal:
  EXPECT_EQ(snap.tenants[0].expired, 0u);   // rejected != expired
}

// A quota installed on a tenant that already has traffic keeps the
// tenant's counters and governs its very next request.
TEST_F(ServerTest, SetQuotaOnABusyTenantKeepsCountersAndAppliesNextRequest) {
  Server server(index_.get());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.Execute(KnnRequest("busy")).status.ok());
  }
  TenantQuota quota;
  quota.rate_qps = 1e-6;  // effectively never refills
  quota.burst = 1.0;
  server.SetQuota("busy", quota);

  EXPECT_TRUE(server.Execute(KnnRequest("busy")).status.ok());
  EXPECT_EQ(server.Execute(KnnRequest("busy")).status.code(),
            StatusCode::kResourceExhausted);

  MetricsSnapshot snap = server.Snapshot();
  ASSERT_EQ(snap.tenants.size(), 1u);
  EXPECT_EQ(snap.tenants[0].admitted, 4u);
  EXPECT_EQ(snap.tenants[0].completed, 4u);
  EXPECT_EQ(snap.tenants[0].rejected, 1u);
  EXPECT_EQ(snap.tenants[0].latency.count, 4u);
  EXPECT_GT(snap.tenants[0].io.logical_reads, 0u);
}

TEST_F(ServerTest, TinyDeadlineExpiresAndCounts) {
  ServerOptions options;
  options.default_deadline_seconds = 1e-12;
  Server server(index_.get(), options);
  QueryResult r = server.Execute(KnnRequest("t"));
  EXPECT_TRUE(r.status.IsDeadlineExceeded()) << r.status.ToString();
  MetricsSnapshot snap = server.Snapshot();
  ASSERT_EQ(snap.tenants.size(), 1u);
  EXPECT_EQ(snap.tenants[0].expired, 1u);
  EXPECT_EQ(snap.tenants[0].rejected, 0u);
}

TEST_F(ServerTest, QueueConsumedBudgetExpiresBeforeFanOut) {
  // The remaining-budget rule end to end: a deadline-bearing request
  // whose whole budget burns waiting for an in-flight slot must come back
  // DeadlineExceeded (counted as expired) without fanning out. The slot
  // is held by the gate's own RAII ticket — the wait path is the same one
  // Execute() takes.
  AdmissionGate gate;
  TenantQuota quota;
  quota.max_in_flight = 1;
  gate.SetQuota(quota);
  auto held = gate.Admit();
  ASSERT_TRUE(held.ok());
  auto starved = gate.Admit(/*max_wait_seconds=*/0.06);
  ASSERT_FALSE(starved.ok());
  EXPECT_TRUE(starved.status().IsDeadlineExceeded());

  // Server-side accounting for the same shape: a budget consumed before
  // the scatter counts as expired, not rejected, and no I/O happens.
  Server server(index_.get());
  Request req = KnnRequest("q");
  req.deadline_seconds = 1e-12;
  QueryResult out = server.Execute(req);
  EXPECT_TRUE(out.status.IsDeadlineExceeded());
  MetricsSnapshot snap = server.Snapshot();
  ASSERT_EQ(snap.tenants.size(), 1u);
  EXPECT_EQ(snap.tenants[0].expired, 1u);
  EXPECT_EQ(snap.tenants[0].rejected, 0u);
}

TEST_F(ServerTest, CancelFlagCancelsAndCounts) {
  Server server(index_.get());
  server.Cancel();
  QueryResult r = server.Execute(KnnRequest("c"));
  EXPECT_TRUE(r.status.IsCancelled()) << r.status.ToString();
  server.ResetCancel();
  r = server.Execute(KnnRequest("c"));
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();

  MetricsSnapshot snap = server.Snapshot();
  ASSERT_EQ(snap.tenants.size(), 1u);
  EXPECT_EQ(snap.tenants[0].cancelled, 1u);
  EXPECT_EQ(snap.tenants[0].completed, 1u);
}

TEST_F(ServerTest, SnapshotCarriesPerShardIoAndLatencies) {
  Server server(index_.get());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.Execute(KnnRequest("io")).status.ok());
  }
  MetricsSnapshot snap = server.Snapshot();
  EXPECT_EQ(snap.per_shard_io.size(), index_->shards());
  EXPECT_GT(snap.total_io.logical_reads, 0u);  // serving I/O, not build I/O
  ASSERT_EQ(snap.tenants.size(), 1u);
  EXPECT_EQ(snap.tenants[0].completed, 10u);
  EXPECT_EQ(snap.tenants[0].latency.count, 10u);
  EXPECT_GT(snap.tenants[0].latency.p50, 0.0);
  EXPECT_GE(snap.tenants[0].latency.max, snap.tenants[0].latency.p50);
  EXPECT_GT(snap.window_seconds, 0.0);
  EXPECT_GT(snap.tenants[0].qps, 0.0);
  EXPECT_EQ(snap.TotalCompleted(), 10u);

  server.ResetMetrics();
  snap = server.Snapshot();
  EXPECT_EQ(snap.TotalCompleted(), 0u);
  EXPECT_EQ(snap.total_io.logical_reads, 0u);
  EXPECT_EQ(snap.tenants[0].latency.count, 0u);
}

// The latency window holds the last latency_window completed requests:
// the snapshot summarizes exactly those, and ResetMetrics empties it.
TEST_F(ServerTest, LatencyWindowSummarizesTheLastCompletedRequests) {
  ServerOptions options;
  options.latency_window = 4;
  Server server(index_.get(), options);
  std::vector<double> seconds;
  for (int i = 0; i < 10; ++i) {
    Request r = KnnRequest("w");
    // The first six return every row, so they are the slow ones a window
    // that kept old samples would report.
    if (i < 6) r.query = Query::MakeKnn(center_, data_.size());
    const QueryResult res = server.Execute(r);
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    seconds.push_back(res.seconds);
  }
  const auto expect_window = [&](size_t n) {
    const LatencySummary want =
        SummarizeLatencies({seconds.end() - static_cast<ptrdiff_t>(n),
                            seconds.end()});
    const MetricsSnapshot snap = server.Snapshot();
    ASSERT_EQ(snap.tenants.size(), 1u);
    const LatencySummary& got = snap.tenants[0].latency;
    EXPECT_EQ(got.count, n);
    EXPECT_EQ(got.mean, want.mean);
    EXPECT_EQ(got.p50, want.p50);
    EXPECT_EQ(got.p99, want.p99);
    EXPECT_EQ(got.max, want.max);
  };
  expect_window(4);

  server.ResetMetrics();
  for (int i = 0; i < 2; ++i) {
    const QueryResult res = server.Execute(KnnRequest("w"));
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    seconds.push_back(res.seconds);
  }
  expect_window(2);
}

/// Resident set size of this process, from /proc/self/statm.
size_t ResidentBytes() {
  size_t total_pages = 0;
  size_t resident_pages = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%zu %zu", &total_pages, &resident_pages) != 2) {
    resident_pages = 0;
  }
  std::fclose(f);
  return resident_pages * static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

// A tenant record is small until its tenant sends traffic: the latency
// ring grows with completed requests, up to the window, instead of being
// allocated whole (8,192 samples, 64 KiB by default) for every name seen.
TEST_F(ServerTest, OneRequestPerTenantNameKeepsRecordsSmall) {
  Server server(index_.get());
  for (int i = 0; i < 20; ++i) {  // warm the shards' scratch and caches
    ASSERT_TRUE(server.Execute(KnnRequest("warm")).status.ok());
  }
  constexpr size_t kTenants = 2000;
  const size_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  for (size_t i = 0; i < kTenants; ++i) {
    ASSERT_TRUE(
        server.Execute(KnnRequest("tenant-" + std::to_string(i))).status.ok());
  }
  const size_t after = ResidentBytes();
  EXPECT_EQ(server.Snapshot().tenants.size(), kTenants + 1);
  const size_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, size_t{32} << 20)
      << "RSS grew " << (grown >> 20) << " MiB for " << kTenants
      << " one-request tenants";
}

TEST_F(ServerTest, MultiTenantTrafficIsIsolatedInMetrics) {
  ThreadPool pool(2);
  index_->set_pool(&pool);
  Server server(index_.get());
  TenantQuota quota;
  quota.rate_qps = 1e-6;
  quota.burst = 2.0;
  server.SetQuota("capped", quota);

  std::thread free_traffic([&] {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(server.Execute(KnnRequest("free")).status.ok());
    }
  });
  size_t capped_rejected = 0;
  for (int i = 0; i < 10; ++i) {
    QueryResult r = server.Execute(KnnRequest("capped"));
    if (r.status.code() == StatusCode::kResourceExhausted) ++capped_rejected;
  }
  free_traffic.join();
  index_->set_pool(nullptr);

  MetricsSnapshot snap = server.Snapshot();
  ASSERT_EQ(snap.tenants.size(), 2u);
  EXPECT_EQ(snap.tenants[0].tenant, "capped");  // sorted by name
  EXPECT_EQ(snap.tenants[1].tenant, "free");
  EXPECT_EQ(snap.tenants[0].completed + snap.tenants[0].rejected, 10u);
  EXPECT_EQ(capped_rejected, snap.tenants[0].rejected);
  EXPECT_GE(snap.tenants[0].rejected, 8u);  // burst 2, then turned away
  EXPECT_EQ(snap.tenants[1].completed, 20u);
  EXPECT_EQ(snap.tenants[1].rejected, 0u);
}

// Satellite 2: the snapshot exposes per-shard buffer-pool cache gauges
// and per-tenant I/O including the per-access-class cache counters.
TEST_F(ServerTest, SnapshotCarriesPerShardCacheAndTenantIo) {
  Server server(index_.get());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Execute(KnnRequest("t")).status.ok());
  }
  MetricsSnapshot snap = server.Snapshot();
  ASSERT_EQ(snap.per_shard_cache.size(), index_->shards());
  for (const BufferPool::CacheSnapshot& cache : snap.per_shard_cache) {
    // Default HybridTreeOptions serve with the segmented policy; the
    // shard trees are resident after build, so the gauges are live.
    EXPECT_EQ(cache.policy, CachePolicy::kSlru);
    EXPECT_GT(cache.cached_pages, 0u);
    EXPECT_EQ(cache.cached_pages, cache.probation_pages +
                                      cache.protected_pages +
                                      cache.prefetch_queue_pages);
  }
  // Scatter-task I/O folded into the tenant, classed as query traffic.
  ASSERT_EQ(snap.tenants.size(), 1u);
  const IoStats& io = snap.tenants[0].io;
  EXPECT_GT(io.logical_reads, 0u);
  const size_t q = static_cast<size_t>(AccessClass::kQuery);
  EXPECT_GT(io.class_hits[q] + io.class_misses[q], 0u);

  server.ResetMetrics();
  snap = server.Snapshot();
  EXPECT_EQ(snap.tenants[0].io.logical_reads, 0u);
  EXPECT_EQ(snap.tenants[0].io.class_hits[q], 0u);
}

// Satellite 2 + tentpole wiring: an attached CacheManager splits its
// budget across the shard pools at build time, caps them, and rebalances
// as the server observes traffic (Execute ticks MaybeRebalanceCache).
TEST(ServeCacheManagerTest, ManagerSplitsBudgetAcrossShardPools) {
  Rng rng(11);
  Dataset data = GenFourier(1200, 8, rng);
  HybridTreeOptions opts;
  opts.dim = 8;

  CacheManagerOptions mopts;
  mopts.total_budget_pages = 96;
  mopts.min_pool_pages = 8;
  mopts.rebalance_interval = 2;
  CacheManager mgr(mopts);  // must outlive the index (dtor unregisters)

  ShardedIndexOptions so;
  so.shards = 3;
  so.cache_manager = &mgr;
  auto index_r = ShardedIndex::Build(opts, so, data, nullptr);
  ASSERT_TRUE(index_r.ok()) << index_r.status().ToString();
  std::unique_ptr<ShardedIndex> index = std::move(index_r).ValueUnsafe();

  // Registration split the budget evenly across the three shard pools.
  EXPECT_EQ(mgr.pool_count(), 3u);
  for (size_t s = 0; s < index->shards(); ++s) {
    EXPECT_EQ(index->shard_cache(s).capacity_pages, 32u);
  }

  // Traffic through the server keeps the capacities within the budget
  // and above the floor as rebalances fire (interval 2, 12 requests).
  Server server(index.get());
  auto centers = MakeQueryCenters(data, 1, rng);
  L2Metric metric;
  Request req;
  req.tenant = "t";
  req.query = Query::MakeKnn(
      std::vector<float>(centers[0].begin(), centers[0].end()), 5);
  req.metric = &metric;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(server.Execute(req).status.ok());
  }
  size_t total = 0;
  for (const CacheManager::PoolReport& report : mgr.Report()) {
    EXPECT_GE(report.capacity_pages, mopts.min_pool_pages);
    total += report.capacity_pages;
  }
  EXPECT_LE(total, mopts.total_budget_pages);
  MetricsSnapshot snap = server.Snapshot();
  for (size_t s = 0; s < index->shards(); ++s) {
    EXPECT_LE(snap.per_shard_cache[s].cached_pages,
              snap.per_shard_cache[s].capacity_pages +
                  snap.per_shard_cache[s].pinned_pages);
  }
}

}  // namespace
}  // namespace ht

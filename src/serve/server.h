// Copyright 2026 The HybridTree Authors.
// Server: the thin request layer over a ShardedIndex — per-tenant
// admission control, deadline propagation, and live metrics.
//
// Request lifecycle:
//   1. Arrival stamps the request's wall-clock budget (deadline_seconds).
//   2. The tenant's AdmissionGate::Admit — token bucket (reject: rate
//      overload) then bounded in-flight wait (expire: queued past the
//      budget). The ticket carries the quota's recall tier.
//   3. The REMAINING budget — original minus admission queueing delay —
//      is what goes into the per-shard ExecOptions::deadline_seconds,
//      so a request that burned its budget in the queue expires instead
//      of fanning out with a deadline it can no longer meet.
//   4. Scatter-gather on the index; per-query latency and outcome land in
//      the tenant's metrics; per-shard I/O accumulates in the index.
//
// Execute() is safe from any thread, the serving pool's own workers
// included: a scatter runs every shard task no helper has claimed on its
// calling thread, so it never waits on its own pool's queue. Cancel()
// flips a server-wide flag observed by every in-flight scatter;
// Snapshot() is cheap enough to poll live.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "geometry/box.h"
#include "serve/admission.h"
#include "serve/metrics.h"
#include "serve/sharded_index.h"

namespace ht {

/// One box / distance-range / k-NN query.
struct Query {
  enum class Type : uint8_t { kBox = 0, kRange = 1, kKnn = 2 };

  Type type = Type::kBox;
  Box box;                    // kBox
  std::vector<float> center;  // kRange / kKnn
  double radius = 0.0;        // kRange
  size_t k = 0;               // kKnn

  static Query MakeBox(Box b) {
    Query q;
    q.type = Type::kBox;
    q.box = std::move(b);
    return q;
  }
  static Query MakeRange(std::vector<float> center, double radius) {
    Query q;
    q.type = Type::kRange;
    q.center = std::move(center);
    q.radius = radius;
    return q;
  }
  static Query MakeKnn(std::vector<float> center, size_t k) {
    Query q;
    q.type = Type::kKnn;
    q.center = std::move(center);
    q.k = k;
    return q;
  }
};

/// Outcome of one query. Exactly one of `ids` / `neighbors` is populated
/// (by query type) when `status` is OK.
struct QueryResult {
  Status status;
  std::vector<uint64_t> ids;                           // box / range
  std::vector<std::pair<double, uint64_t>> neighbors;  // knn
  double seconds = 0.0;  // latency (successful queries only)
};

/// One tenant request: a query plus its identity and wall-clock budget.
struct Request {
  std::string tenant;
  Query query;
  /// Required for kRange / kKnn; must outlive Execute().
  const DistanceMetric* metric = nullptr;
  /// Total budget from arrival, in seconds; 0 = no deadline.
  double deadline_seconds = 0.0;
  /// Per-request k-NN recall override: when set, knn_epsilon and
  /// knn_max_leaf_visits below replace the tenant's default recall tier
  /// (TenantQuota::knn_*) for this request only — e.g. an interactive
  /// caller requesting exact results on a tenant that defaults to a fast
  /// approximate tier, or vice versa.
  bool has_recall_override = false;
  double knn_epsilon = 0.0;
  size_t knn_max_leaf_visits = 0;
};

struct ServerOptions {
  /// Budget applied when a request carries none; 0 = none.
  double default_deadline_seconds = 0.0;
  /// Per-tenant completed-latency ring capacity (percentile window).
  size_t latency_window = 8192;
};

class Server {
 public:
  /// Neither the index nor (transitively) its pool is owned; both must
  /// outlive the server.
  explicit Server(ShardedIndex* index, ServerOptions options = {});
  HT_DISALLOW_COPY_AND_ASSIGN(Server);

  /// Installs `tenant`'s admission quota, recall tier included. The
  /// tenant's counters carry over; its next request is admitted under the
  /// new quota.
  void SetQuota(const std::string& tenant, const TenantQuota& quota);

  /// Runs one request end to end (admission -> scatter-gather -> merge).
  /// The QueryResult's status distinguishes ResourceExhausted (rejected),
  /// DeadlineExceeded (expired), Cancelled, and real failures; ids /
  /// neighbors are populated in canonical order on OK.
  QueryResult Execute(const Request& request);

  /// Flags every in-flight and future request as cancelled until
  /// ResetCancel(). Callable from any thread.
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }
  void ResetCancel() { cancel_.store(false, std::memory_order_relaxed); }

  /// Live metrics: per-tenant counters + latency percentiles, per-shard
  /// serving I/O. Thread-safe, callable while traffic runs.
  MetricsSnapshot Snapshot() const;

  /// Zeroes counters, latency windows, the QPS window, and the index's
  /// serving I/O counters (for post-warmup measurement).
  void ResetMetrics();

  ShardedIndex* index() const { return index_; }

  /// The remaining-budget rule (exposed for direct unit testing): a
  /// budget of 0 means "no deadline" and stays 0; otherwise the original
  /// budget minus the admission queueing delay. A result <= 0 means the
  /// request expired in the queue and must not fan out.
  static double RemainingBudget(double budget_seconds, double waited_seconds) {
    if (budget_seconds <= 0.0) return 0.0;
    return budget_seconds - waited_seconds;
  }

 private:
  /// One record of the tenant table: the tenant's admission gate and its
  /// metrics.
  struct TenantState {
    AdmissionGate gate;
    /// Relaxed throughout: independent monotonic counters — snapshots
    /// tolerate torn cross-counter views (each value is itself exact),
    /// and no counter orders any other data.
#define HT_TENANT_STATE_DECLARE(counter) std::atomic<uint64_t> counter{0};
    HT_TENANT_COUNTERS(HT_TENANT_STATE_DECLARE)
#undef HT_TENANT_STATE_DECLARE
    Mutex stats_mu{LockRank::kServerTenantStats,
                   "Server::TenantState::stats_mu"};
    /// Ring of completed-query latencies (seconds): grows one sample per
    /// completed request up to ServerOptions::latency_window, then
    /// overwrites the oldest. ResetMetrics keeps what it has allocated.
    std::vector<double> latency_ring HT_GUARDED_BY(stats_mu);
    size_t latency_next HT_GUARDED_BY(stats_mu) = 0;
    size_t latency_count HT_GUARDED_BY(stats_mu) = 0;
    /// Per-tenant I/O (including the per-access-class cache counters),
    /// accumulated from each request's scatter tasks via
    /// ExecOptions::request_io.
    IoStats io HT_GUARDED_BY(stats_mu);
  };

  TenantState* GetTenant(const std::string& tenant);

  ShardedIndex* index_;
  ServerOptions options_;
  /// Relaxed: a pure flag with no payload to publish; scatter tasks poll
  /// it and a slightly late observation only delays cancellation.
  std::atomic<bool> cancel_{false};

  /// The tenant table, the only per-tenant registry: read-mostly after
  /// warmup; records are pointer-stable and never removed, so a ticket
  /// may point at its record's gate. Held shared across the per-tenant
  /// stats locks in Snapshot (the map(1100) -> stats(800) nesting in the
  /// lock-rank table).
  mutable SharedMutex tenants_mu_{LockRank::kServerTenantMap,
                                  "Server::tenants_mu_"};
  std::unordered_map<std::string, std::unique_ptr<TenantState>> tenants_
      HT_GUARDED_BY(tenants_mu_);

  /// QPS window start (seconds, steady clock). Relaxed: written only by
  /// ResetMetrics/construction, read by Snapshot; a stale read skews the
  /// reported window by at most one reset race, never breaks anything.
  std::atomic<double> window_start_;
};

}  // namespace ht

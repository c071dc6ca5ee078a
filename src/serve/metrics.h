// Copyright 2026 The HybridTree Authors.
// Live serving metrics: per-tenant traffic counters + latency percentiles
// and per-shard I/O, exported as a point-in-time MetricsSnapshot.
//
// Every request ends in exactly one of these outcomes:
//
//   rejected   — refused by the token bucket (rate overload), never ran
//   expired    — deadline exceeded: while queued for an in-flight slot,
//                after admission with no budget left, or mid-scatter
//   cancelled  — server-side cancel observed by a shard task
//   completed  — ran to completion, counted into the latency window
//   failed     — any other non-OK status (I/O error, corruption, ...)
//
// rejected vs expired is the load-shedding signal: rejected traffic was
// turned away cheaply at the front door, expired traffic burned queue or
// scatter time first. Benchmarks (bench_serve) assert both are visible.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/latency.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"

namespace ht {

/// A tenant's request counters, listed once. Each X(name) is a uint64_t
/// field of TenantMetrics and a relaxed atomic in the server's tenant
/// record; Server::Snapshot copies and Server::ResetMetrics zeroes every
/// one of them.
///   admitted                requests that passed the admission gate
///   completed, rejected, expired, cancelled, failed
///                           the request outcomes above
///   knn_leaf_visits         data pages scanned by the tenant's k-NN
///                           traversals
///   knn_early_terminations  shard traversals a recall knob (epsilon /
///                           leaf-visit budget) cut short of the exact
///                           search
#define HT_TENANT_COUNTERS(X) \
  X(admitted)                 \
  X(completed)                \
  X(rejected)                 \
  X(expired)                  \
  X(cancelled)                \
  X(failed)                   \
  X(knn_leaf_visits)          \
  X(knn_early_terminations)

/// One tenant's cumulative counters since server start (or ResetMetrics),
/// plus percentiles over the retained latency window.
struct TenantMetrics {
  std::string tenant;
#define HT_TENANT_METRICS_DECLARE(counter) uint64_t counter = 0;
  HT_TENANT_COUNTERS(HT_TENANT_METRICS_DECLARE)
#undef HT_TENANT_METRICS_DECLARE
  /// completed / window_seconds of the enclosing snapshot.
  double qps = 0.0;
  /// Over the tenant's retained completed-latency window (a bounded ring;
  /// percentiles describe recent traffic, not all-time).
  LatencySummary latency;
  /// I/O attributed to this tenant's requests (scatter-task sums),
  /// including the per-access-class cache hit/miss/eviction counters.
  IoStats io;
  /// Fraction of this tenant's scanned rows the quantized filter pruned
  /// before a full-precision distance (batch + cursor paths combined;
  /// IoStats::QuantPruneRate over `io`). 0 when nothing was scanned.
  double quant_prune_rate = 0.0;
};

/// Point-in-time view of the whole server.
struct MetricsSnapshot {
  /// Seconds since server start / last ResetMetrics.
  double window_seconds = 0.0;
  /// Sorted by tenant name.
  std::vector<TenantMetrics> tenants;
  /// Serving-attributed I/O per shard (ShardedIndex::shard_io): logical/
  /// physical reads, batch_reads/batch_writes round trips, and
  /// prefetch_issued/prefetch_hits — build I/O excluded.
  std::vector<IoStats> per_shard_io;
  /// Sum over per_shard_io.
  IoStats total_io;
  /// Per-shard buffer-pool cache gauges (eviction policy, current capacity
  /// target — as rebalanced by the CacheManager when one is attached —
  /// occupancy, and segment sizes). Indexed like per_shard_io.
  std::vector<BufferPool::CacheSnapshot> per_shard_cache;

  /// Convenience sums over tenants.
  uint64_t TotalCompleted() const {
    uint64_t n = 0;
    for (const TenantMetrics& t : tenants) n += t.completed;
    return n;
  }
  uint64_t TotalRejected() const {
    uint64_t n = 0;
    for (const TenantMetrics& t : tenants) n += t.rejected;
    return n;
  }
  uint64_t TotalExpired() const {
    uint64_t n = 0;
    for (const TenantMetrics& t : tenants) n += t.expired;
    return n;
  }
};

}  // namespace ht

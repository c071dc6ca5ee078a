// Copyright 2026 The HybridTree Authors.
// Per-tenant admission control for the serving layer: a token bucket
// (sustained rate + burst) gates REQUEST RATE, a bounded in-flight count
// gates CONCURRENCY, and the two compose into the classic
// reject-or-briefly-queue front door:
//
//   * No token available        -> ResourceExhausted, immediately. Rate
//     overload is rejected, never queued — queueing it would just move
//     the overload into memory.
//   * In-flight slots all busy  -> the request WAITS (bounded by its own
//     deadline budget and the quota's max_queue_seconds); if a slot frees
//     in time it proceeds, otherwise DeadlineExceeded. This wait is the
//     "admission queueing delay" the server subtracts from the request's
//     deadline before fanning out to shards.
//
// An AdmissionGate is one tenant's front door; the Server keeps one in each
// record of its tenant table. Every Admit reports how long it queued and
// the quota's recall tier, and releases its in-flight slot through an RAII
// ticket so early returns can't leak concurrency.
//
// Time is injected (a seconds-valued clock callable) so tests drive the
// token bucket deterministically; the in-flight wait uses the real
// condition-variable clock regardless (it synchronizes actual threads).

#pragma once

#include <cstdint>
#include <functional>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"

namespace ht {

/// Per-tenant limits. The zero-value means "unlimited" for every field, so
/// an unconfigured tenant is admitted unconditionally (open by default;
/// flip by configuring quotas for everyone).
struct TenantQuota {
  /// Sustained admission rate in requests/second; 0 = unlimited.
  double rate_qps = 0.0;
  /// Token-bucket capacity (burst size) in requests; 0 picks
  /// max(1, rate_qps) so a configured rate always admits one-at-a-time.
  double burst = 0.0;
  /// Maximum requests past admission but not yet finished; 0 = unlimited.
  size_t max_in_flight = 0;
  /// Longest a request may queue for an in-flight slot when it carries no
  /// deadline of its own (deadline-bearing requests wait at most their
  /// remaining budget). Guards against unbounded queueing; 0 disables
  /// waiting entirely (full == immediate DeadlineExceeded).
  double max_queue_seconds = 1.0;
  /// Default k-NN recall tier for the tenant: requests that carry no
  /// per-request recall override run with this epsilon and leaf-visit
  /// budget (semantics in core KnnSearchLimits / exec ExecOptions). The
  /// zero values keep the open-by-default rule: an unconfigured tenant
  /// gets exact, unlimited k-NN.
  double knn_epsilon = 0.0;
  size_t knn_max_leaf_visits = 0;
};

class AdmissionGate;

/// RAII in-flight slot: releases on destruction. Movable, not copyable.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  AdmissionTicket(AdmissionTicket&& other) noexcept { MoveFrom(other); }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  ~AdmissionTicket() { Release(); }

  /// Seconds this admission spent queued for an in-flight slot — the
  /// delay the server must subtract from the request's deadline budget.
  double queue_wait_seconds() const { return queue_wait_seconds_; }
  /// The quota's recall tier at admission (TenantQuota::knn_*).
  double knn_epsilon() const { return knn_epsilon_; }
  size_t knn_max_leaf_visits() const { return knn_max_leaf_visits_; }

  void Release();

 private:
  friend class AdmissionGate;
  void MoveFrom(AdmissionTicket& other) {
    gate_ = other.gate_;
    queue_wait_seconds_ = other.queue_wait_seconds_;
    knn_epsilon_ = other.knn_epsilon_;
    knn_max_leaf_visits_ = other.knn_max_leaf_visits_;
    other.gate_ = nullptr;
  }

  /// The gate whose in-flight slot this ticket holds; null when none.
  AdmissionGate* gate_ = nullptr;
  double queue_wait_seconds_ = 0.0;
  double knn_epsilon_ = 0.0;
  size_t knn_max_leaf_visits_ = 0;
};

/// One tenant's token bucket and in-flight count.
class AdmissionGate {
 public:
  /// Seconds-valued monotonic clock; defaults to steady_clock.
  using Clock = std::function<double()>;

  /// Starts with the default (unlimited) quota.
  explicit AdmissionGate(Clock clock = {});
  HT_DISALLOW_COPY_AND_ASSIGN(AdmissionGate);

  /// Installs (or replaces) the quota. The token bucket starts full.
  /// Callable anytime; the in-flight count carries over.
  void SetQuota(const TenantQuota& quota);

  /// Admits one request or fails with ResourceExhausted (no token) /
  /// DeadlineExceeded (queued past `max_wait_seconds` for an in-flight
  /// slot). `max_wait_seconds` is the request's remaining deadline budget;
  /// <= 0 means "no deadline" and defers to the quota's max_queue_seconds.
  /// The ticket holds the in-flight slot when the quota bounds it.
  Result<AdmissionTicket> Admit(double max_wait_seconds = 0.0);

 private:
  friend class AdmissionTicket;
  void ReleaseSlot();

  const Clock clock_;
  Mutex mu_{LockRank::kAdmissionTenant, "AdmissionGate::mu_"};
  CondVar slot_free_;
  TenantQuota quota_ HT_GUARDED_BY(mu_);
  double tokens_ HT_GUARDED_BY(mu_) = 0.0;
  double last_refill_ HT_GUARDED_BY(mu_);
  size_t in_flight_ HT_GUARDED_BY(mu_) = 0;
};

}  // namespace ht

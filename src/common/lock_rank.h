// Copyright 2026 The HybridTree Authors.
// Runtime lock-rank (lock-ordering) checker: the dynamic complement to the
// static Clang Thread Safety annotations in thread_annotations.h.
//
// Every ht::Mutex / ht::SharedMutex (common/sync.h) may carry a LockRank.
// The checker keeps a per-thread stack of held ranks and enforces the
// global order below: a thread may acquire a ranked lock only if its rank
// is STRICTLY LOWER than the rank of every ranked lock it already holds
// (outer locks have higher ranks). Acquiring out of order — the necessary
// condition for lock-cycle deadlocks — aborts immediately with both the
// held-lock stack and the offending acquisition, even on interleavings
// where no deadlock actually manifests (that is the point: TSAN only sees
// cycles it happens to schedule; the rank checker turns a latent inversion
// into a deterministic failure on first occurrence).
//
// ---------------------------------------------------------------------------
// Global lock-order table (one rank per locking domain; acquire top-down).
// Locks on the same rank are never held simultaneously — the checker
// rejects same-rank nesting too. See DESIGN.md §12 for the narrative.
//
//   rank  capability                      holder
//   1200  kCacheManager                   CacheManager::mu_
//   1100  kServerTenantMap                Server::tenants_mu_
//   1000  kAdmissionTenantMap             AdmissionController::tenants_mu_
//    900  kAdmissionTenant                AdmissionController::TenantState::mu
//    800  kServerTenantStats              Server::TenantState::latency_mu / io_mu
//    700  kThreadPool                     ThreadPool::mu_
//    600  kServeScatter                   ShardedIndex scratch_mu_ / Shard::io_mu,
//                                         scatter Latch::mu_, SharedTopK::mu_
//    300  kPoolPrefetch                   BufferPool::prefetch_mu_
//    200  kPool                           BufferPool::mu_
//    100  kPoolFile                       BufferPool::file_mu_
//     50  kPoolPinTable                   BufferPool::pin_mu_
//     25  kPageTable                      PageTable::grow_mu_
//
// The load-bearing nestings this order admits:
//   * CacheManager::Rebalance holds kCacheManager while retargeting pools:
//     1200 -> 200 (pool eviction) -> 100 (write-back file lock).
//   * BufferPool::Fetch/Flush hold the pool lock across file I/O
//     (200 -> 100), pin-tracking (200 -> 50) and the frame table's rare
//     chunk allocation (200 -> 25).
//   * Server::Snapshot / ResetMetrics hold tenants_mu_ (shared) while
//     draining per-tenant metric locks (1100 -> 800).
//   * prefetch_mu_ (300) is documented as "before the pool lock, never
//     after it" in buffer_pool.h; ranking it above kPool makes the
//     documented order machine-checked.
// Everything else is acquire-release-before-next (no nesting), so any new
// nesting some future change introduces gets checked against this table.
// ---------------------------------------------------------------------------
//
// Cost model: checking is OFF by default. The ht::Mutex fast path for a
// RANKED mutex is one call into OnAcquire/OnRelease, which returns after a
// relaxed atomic load when checking is disabled; unranked mutexes (the
// default constructor) skip the call entirely, so code outside the core
// locking domains pays nothing. Building with -DHT_DEBUG_LOCK_RANK=ON
// (wired into the TSAN CI job) enables checking at startup; tests can also
// flip it at runtime via SetEnabled. Behavior with checking enabled is
// abort-or-nothing: the checker never blocks, reorders, or otherwise
// perturbs execution, so release results stay byte-identical.

#pragma once

#include <cstdint>
#include <vector>

namespace ht {

/// Global lock ranks (see the table above). Higher = outer = acquired
/// earlier. kUnranked locks are invisible to the checker.
enum class LockRank : uint32_t {
  kUnranked = 0,
  kPageTable = 25,
  kPoolPinTable = 50,
  kPoolFile = 100,
  kPool = 200,
  kPoolPrefetch = 300,
  kServeScatter = 600,
  kThreadPool = 700,
  kServerTenantStats = 800,
  kAdmissionTenant = 900,
  kAdmissionTenantMap = 1000,
  kServerTenantMap = 1100,
  kCacheManager = 1200,
};

namespace lock_rank {

/// Turns checking on or off process-wide. Defaults to on when the binary
/// was compiled with HT_DEBUG_LOCK_RANK, off otherwise. Thread-safe, but
/// flip it only while no ranked lock is held (entries recorded while
/// enabled are forgotten if a release happens while disabled).
void SetEnabled(bool on);
bool Enabled();

/// Hooks called by ht::Mutex / ht::SharedMutex for ranked locks. OnAcquire
/// must run BEFORE the underlying lock() so an inversion aborts instead of
/// deadlocking. OnTryAcquire records the hold without the order check (a
/// failed-order try_lock cannot contribute to a deadlock cycle — it would
/// simply fail). OnCvReacquire re-records a hold released around a
/// condition-variable wait, also without the order check (the wake-up
/// reacquisition order is the OS's choice, not the code's).
void OnAcquire(const void* mu, LockRank rank, const char* name);
void OnTryAcquire(const void* mu, LockRank rank, const char* name);
void OnCvReacquire(const void* mu, LockRank rank, const char* name);
void OnRelease(const void* mu, LockRank rank, const char* name);

/// Ranks currently held by the calling thread, outermost first (test
/// introspection; empty when checking is disabled).
std::vector<uint32_t> HeldRanks();

}  // namespace lock_rank
}  // namespace ht

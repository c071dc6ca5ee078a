// Copyright 2026 The HybridTree Authors.
// Annotated synchronization primitives: the only place in the library that
// touches raw std::mutex / std::shared_mutex / std::condition_variable
// (the lint CI job greps for strays). Two things layer here:
//
//   1. Clang Thread Safety capabilities (common/thread_annotations.h):
//      ht::Mutex / ht::SharedMutex are CAPABILITY types, the guards are
//      SCOPED_CAPABILITY, so `HT_GUARDED_BY(mu_)` fields and
//      `HT_REQUIRES(mu_)` functions are checked at compile time by the CI
//      thread-safety job.
//   2. The runtime lock-rank checker (common/lock_rank.h): a ranked mutex
//      reports acquisitions/releases to the per-thread rank stack, which
//      aborts on out-of-order acquisition when checking is enabled.
//      Unranked mutexes (default) never call into the checker.
//
// In release builds without lock-rank checking, every wrapper compiles to
// the bare std operation (annotations are attributes, the rank hook is
// skipped for unranked locks and is one relaxed load when disabled), so
// results and performance are unchanged.

#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/lock_rank.h"
#include "common/macros.h"
#include "common/thread_annotations.h"

namespace ht {

class CondVar;

/// Annotated exclusive mutex. Construct with a LockRank (and a name for
/// rank-violation reports) when the lock participates in a nesting chain;
/// default-constructed mutexes are invisible to the rank checker.
class HT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  HT_DISALLOW_COPY_AND_ASSIGN(Mutex);

  void Lock() HT_ACQUIRE() {
    // Rank check BEFORE the blocking lock: an inversion aborts with both
    // stacks instead of deadlocking.
    if (rank_ != LockRank::kUnranked) {
      lock_rank::OnAcquire(this, rank_, name_);
    }
    mu_.lock();
  }

  bool TryLock() HT_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (rank_ != LockRank::kUnranked) {
      lock_rank::OnTryAcquire(this, rank_, name_);
    }
    return true;
  }

  void Unlock() HT_RELEASE() {
    if (rank_ != LockRank::kUnranked) {
      lock_rank::OnRelease(this, rank_, name_);
    }
    mu_.unlock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "";
};

/// Annotated shared (reader-writer) mutex. Shared and exclusive
/// acquisitions participate in the rank discipline identically.
class HT_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  HT_DISALLOW_COPY_AND_ASSIGN(SharedMutex);

  void Lock() HT_ACQUIRE() {
    if (rank_ != LockRank::kUnranked) {
      lock_rank::OnAcquire(this, rank_, name_);
    }
    mu_.lock();
  }
  void Unlock() HT_RELEASE() {
    if (rank_ != LockRank::kUnranked) {
      lock_rank::OnRelease(this, rank_, name_);
    }
    mu_.unlock();
  }
  void LockShared() HT_ACQUIRE_SHARED() {
    if (rank_ != LockRank::kUnranked) {
      lock_rank::OnAcquire(this, rank_, name_);
    }
    mu_.lock_shared();
  }
  void UnlockShared() HT_RELEASE_SHARED() {
    if (rank_ != LockRank::kUnranked) {
      lock_rank::OnRelease(this, rank_, name_);
    }
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "";
};

/// Scoped exclusive lock on a Mutex. Relockable (Unlock()/Lock() members)
/// to express drop-and-reacquire dances.
class HT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) HT_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
    held_ = true;
  }
  ~MutexLock() HT_RELEASE() {
    if (held_) mu_->Unlock();
  }
  HT_DISALLOW_COPY_AND_ASSIGN(MutexLock);

  /// Drop the lock mid-scope.
  void Unlock() HT_RELEASE() {
    HT_DCHECK(held_);
    mu_->Unlock();
    held_ = false;
  }
  /// Reacquire after Unlock().
  void Lock() HT_ACQUIRE() {
    HT_DCHECK(!held_);
    mu_->Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex* mu_;
  bool held_ = false;  // tracks Unlock()/Lock()
};

/// Scoped shared lock on a SharedMutex.
class HT_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) HT_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderLock() HT_RELEASE() { mu_->UnlockShared(); }
  HT_DISALLOW_COPY_AND_ASSIGN(ReaderLock);

 private:
  SharedMutex* mu_;
};

/// Scoped exclusive lock on a SharedMutex.
class HT_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) HT_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterLock() HT_RELEASE() { mu_->Unlock(); }
  HT_DISALLOW_COPY_AND_ASSIGN(WriterLock);

 private:
  SharedMutex* mu_;
};

/// Condition variable working with ht::Mutex through a live, held
/// MutexLock. During the blocked window the mutex's rank is popped from the
/// thread's rank stack and re-recorded on wake-up, so a wait neither
/// poisons the stack nor trips the order check when the OS hands the mutex
/// back in arbitrary order.
class CondVar {
 public:
  CondVar() = default;
  HT_DISALLOW_COPY_AND_ASSIGN(CondVar);

  /// Atomically releases `lock`, blocks, reacquires. Spurious wake-ups
  /// possible; callers loop on their predicate.
  void Wait(MutexLock& lock) {
    Mutex* mu = PrepareWait(lock);
    std::unique_lock<std::mutex> ul(mu->mu_, std::adopt_lock);
    cv_.wait(ul);
    ul.release();
    FinishWait(mu);
  }

  /// Wait with a deadline; std::cv_status::timeout when it passed.
  template <class Clock, class Duration>
  std::cv_status WaitUntil(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    Mutex* mu = PrepareWait(lock);
    std::unique_lock<std::mutex> ul(mu->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(ul, deadline);
    ul.release();
    FinishWait(mu);
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  static Mutex* PrepareWait(MutexLock& lock) {
    HT_DCHECK(lock.held_);
    Mutex* mu = lock.mu_;
    if (mu->rank_ != LockRank::kUnranked) {
      lock_rank::OnRelease(mu, mu->rank_, mu->name_);
    }
    return mu;
  }
  static void FinishWait(Mutex* mu) {
    if (mu->rank_ != LockRank::kUnranked) {
      lock_rank::OnCvReacquire(mu, mu->rank_, mu->name_);
    }
  }

  std::condition_variable cv_;
};

/// Annotation-only capability ("role" in the Clang docs): a zero-size
/// token for protocols enforced by CONVENTION rather than a runtime lock
/// — here, the tree's shared-read / exclusive-write contract. Public
/// entry points acquire the role internally (so callers and tests are
/// untouched), private helpers carry HT_REQUIRES / HT_REQUIRES_SHARED on
/// it, and the whole thing compiles to nothing: the acquire/release
/// members have empty bodies and exist only for their attributes.
class HT_CAPABILITY("role") Role {
 public:
  Role() = default;
  HT_DISALLOW_COPY_AND_ASSIGN(Role);

  void Acquire() const HT_ACQUIRE() {}
  void AcquireShared() const HT_ACQUIRE_SHARED() {}
  void Release() const HT_RELEASE() {}
  void ReleaseShared() const HT_RELEASE_SHARED() {}
};

/// Scoped shared hold of a Role (read side of a protocol).
class HT_SCOPED_CAPABILITY SharedRole {
 public:
  explicit SharedRole(const Role* role) HT_ACQUIRE_SHARED(role)
      : role_(role) {
    role_->AcquireShared();
  }
  ~SharedRole() HT_RELEASE() { role_->ReleaseShared(); }
  HT_DISALLOW_COPY_AND_ASSIGN(SharedRole);

 private:
  const Role* role_;
};

/// Scoped exclusive hold of a Role (write side of a protocol).
class HT_SCOPED_CAPABILITY ExclusiveRole {
 public:
  explicit ExclusiveRole(const Role* role) HT_ACQUIRE(role) : role_(role) {
    role_->Acquire();
  }
  ~ExclusiveRole() HT_RELEASE() { role_->Release(); }
  HT_DISALLOW_COPY_AND_ASSIGN(ExclusiveRole);

 private:
  const Role* role_;
};

}  // namespace ht

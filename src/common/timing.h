// Copyright 2026 The HybridTree Authors.
// Wall-clock and CPU timers for the evaluation harness.

#pragma once

#include <chrono>
#include <ctime>

namespace ht {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }
  void Restart() { start_ = std::chrono::steady_clock::now(); }
  /// Elapsed seconds since construction or last Restart().
  double Seconds() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Thread CPU-time stopwatch: the CPU time the calling thread has used
/// since construction or the last Restart(), from CLOCK_THREAD_CPUTIME_ID
/// (1 ns resolution by clock_getres on Linux). Time the thread spends
/// preempted — by a co-tenant on a shared host, say — is not charged to
/// it. This is the quantity the paper's "CPU time" / "normalized CPU
/// cost" plots use. Start it and read it on the same thread.
class CpuTimer {
 public:
  CpuTimer() { Restart(); }
  void Restart() { start_ = Now(); }
  double Seconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_;
};

}  // namespace ht

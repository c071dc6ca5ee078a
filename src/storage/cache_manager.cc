#include "storage/cache_manager.h"

#include <algorithm>

namespace ht {

CacheManager::CacheManager(CacheManagerOptions options)
    : options_(options) {}

void CacheManager::DemandTotals(const IoStats& s, uint64_t* hits,
                                uint64_t* misses) {
  *hits = 0;
  *misses = 0;
  for (size_t c = 0; c < kNumAccessClasses; ++c) {
    *hits += s.class_hits[c];
    *misses += s.class_misses[c];
  }
}

void CacheManager::SplitEvenLocked() {
  if (entries_.empty() || options_.total_budget_pages == 0) return;
  const size_t share = std::max(
      options_.min_pool_pages, options_.total_budget_pages / entries_.size());
  for (Entry& e : entries_) {
    (void)e.pool->SetCapacity(share);
    e.last = e.pool->stats();
  }
}

void CacheManager::Register(const std::string& name, BufferPool* pool) {
  MutexLock lk(&mu_);
  for (const Entry& e : entries_) {
    if (e.pool == pool) return;
  }
  Entry e;
  e.name = name;
  e.pool = pool;
  e.last = pool->stats();
  entries_.push_back(std::move(e));
  SplitEvenLocked();
}

void CacheManager::Unregister(BufferPool* pool) {
  MutexLock lk(&mu_);
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [pool](const Entry& e) { return e.pool == pool; });
  if (it == entries_.end()) return;
  entries_.erase(it);
  SplitEvenLocked();
}

void CacheManager::MaybeRebalance() {
  const uint64_t interval = std::max<uint64_t>(1, options_.rebalance_interval);
  if ((tick_.fetch_add(1, std::memory_order_relaxed) + 1) % interval != 0) {
    return;
  }
  Rebalance();
}

void CacheManager::Rebalance() {
  MutexLock lk(&mu_);
  if (entries_.empty() || options_.total_budget_pages == 0) return;
  const size_t n = entries_.size();
  const size_t floor = options_.min_pool_pages;
  if (options_.total_budget_pages <= floor * n) {
    // Budget too small to differentiate: hold the even split.
    return;
  }
  const size_t spread = options_.total_budget_pages - floor * n;

  // Marginal utility proxy: demand misses in the window since the last
  // rebalance. A miss is exactly the event more capacity could have turned
  // into a hit, so the miss share is the capacity share (the +1 keeps idle
  // pools defined and lets them decay toward the floor rather than to 0).
  std::vector<IoStats> now(n);
  std::vector<double> weight(n);
  double weight_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    now[i] = entries_[i].pool->stats();
    const IoStats delta = now[i].Delta(entries_[i].last);
    uint64_t hits = 0, misses = 0;
    DemandTotals(delta, &hits, &misses);
    weight[i] = static_cast<double>(misses) + 1.0;
    weight_sum += weight[i];
  }

  // Raw demand split -> smooth against the current target -> renormalize so
  // rounding never leaks budget, then apply.
  std::vector<double> target(n);
  double target_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double raw = static_cast<double>(floor) +
                       static_cast<double>(spread) * weight[i] / weight_sum;
    const double cur = static_cast<double>(entries_[i].pool->capacity());
    target[i] = options_.smoothing * raw + (1.0 - options_.smoothing) * cur;
    target[i] = std::max(target[i], static_cast<double>(floor));
    target_sum += target[i];
  }
  const double scale =
      static_cast<double>(options_.total_budget_pages) / target_sum;
  for (size_t i = 0; i < n; ++i) {
    const size_t pages = std::max(
        floor, static_cast<size_t>(target[i] * scale));
    (void)entries_[i].pool->SetCapacity(pages);
    entries_[i].last = now[i];
  }
}

size_t CacheManager::pool_count() const {
  MutexLock lk(&mu_);
  return entries_.size();
}

std::vector<CacheManager::PoolReport> CacheManager::Report() const {
  MutexLock lk(&mu_);
  std::vector<PoolReport> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    PoolReport r;
    r.name = e.name;
    r.capacity_pages = e.pool->capacity();
    const IoStats delta = e.pool->stats().Delta(e.last);
    DemandTotals(delta, &r.window_hits, &r.window_misses);
    const uint64_t total = r.window_hits + r.window_misses;
    r.window_hit_rate =
        total == 0 ? 0.0
                   : static_cast<double>(r.window_hits) /
                         static_cast<double>(total);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace ht

#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/timing.h"

namespace ht {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Server(ShardedIndex* index, ServerOptions options)
    : index_(index), options_(options) {
  options_.latency_window = std::max<size_t>(1, options_.latency_window);
  window_start_.store(SteadySeconds(), std::memory_order_relaxed);
}

void Server::SetQuota(const std::string& tenant, const TenantQuota& quota) {
  // Creating the record here also lists a quota'd tenant in the snapshot
  // before its first request.
  GetTenant(tenant)->gate.SetQuota(quota);
}

Server::TenantState* Server::GetTenant(const std::string& tenant) {
  {
    ReaderLock lock(&tenants_mu_);
    auto it = tenants_.find(tenant);
    if (it != tenants_.end()) return it->second.get();
  }
  WriterLock lock(&tenants_mu_);
  std::unique_ptr<TenantState>& slot = tenants_[tenant];
  if (slot == nullptr) slot = std::make_unique<TenantState>();
  return slot.get();
}

QueryResult Server::Execute(const Request& request) {
  QueryResult result;
  TenantState* state = GetTenant(request.tenant);
  const double budget = request.deadline_seconds > 0.0
                            ? request.deadline_seconds
                            : options_.default_deadline_seconds;
  WallTimer timer;

  // Admission: reject (rate) or queue briefly (in-flight), bounded by the
  // request's own budget.
  Result<AdmissionTicket> admit_r = state->gate.Admit(budget);
  if (!admit_r.ok()) {
    result.status = admit_r.status();
    if (result.status.IsDeadlineExceeded()) {
      state->expired.fetch_add(1, std::memory_order_relaxed);
    } else {
      state->rejected.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  }
  AdmissionTicket ticket = std::move(admit_r).ValueUnsafe();
  state->admitted.fetch_add(1, std::memory_order_relaxed);

  // Deadline propagation: shards get the REMAINING budget, not the
  // original — admission queueing already spent part of it.
  ExecOptions exec;
  exec.cancel = &cancel_;
  // Per-request I/O lands in a local sink (scatter tasks write their own
  // slots), then folds into the tenant's counters after the barrier.
  IoStats request_io;
  exec.request_io = &request_io;
  // Recall tier: the per-request override wins; otherwise the quota's, as
  // admitted (exact, unlimited for unconfigured tenants). The k-NN visit
  // accounting lands in a local sink like request_io, then folds into the
  // tenant's counters after the scatter barrier.
  KnnExecStats request_knn;
  exec.knn_stats = &request_knn;
  if (request.has_recall_override) {
    exec.knn_epsilon = request.knn_epsilon;
    exec.knn_max_leaf_visits = request.knn_max_leaf_visits;
  } else {
    exec.knn_epsilon = ticket.knn_epsilon();
    exec.knn_max_leaf_visits = ticket.knn_max_leaf_visits();
  }
  if (budget > 0.0) {
    const double remaining =
        RemainingBudget(budget, ticket.queue_wait_seconds());
    if (remaining <= 0.0) {
      result.status =
          Status::DeadlineExceeded("deadline consumed by admission queueing");
      state->expired.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
    exec.deadline_seconds = remaining;
  }

  switch (request.query.type) {
    case Query::Type::kBox:
      result.status = index_->SearchBox(request.query.box, exec, &result.ids);
      break;
    case Query::Type::kRange:
      if (request.metric == nullptr) {
        result.status =
            Status::InvalidArgument("range request without a metric");
        break;
      }
      result.status =
          index_->SearchRange(request.query.center, request.query.radius,
                              *request.metric, exec, &result.ids);
      break;
    case Query::Type::kKnn:
      if (request.metric == nullptr) {
        result.status =
            Status::InvalidArgument("knn request without a metric");
        break;
      }
      result.status =
          index_->SearchKnn(request.query.center, request.query.k,
                            *request.metric, exec, &result.neighbors);
      break;
  }
  result.seconds = timer.Seconds();
  if (result.status.ok()) {
    state->completed.fetch_add(1, std::memory_order_relaxed);
  } else if (result.status.IsCancelled()) {
    state->cancelled.fetch_add(1, std::memory_order_relaxed);
  } else if (result.status.IsDeadlineExceeded()) {
    state->expired.fetch_add(1, std::memory_order_relaxed);
  } else {
    state->failed.fetch_add(1, std::memory_order_relaxed);
  }
  {
    MutexLock lock(&state->stats_mu);
    if (result.status.ok()) {
      std::vector<double>& ring = state->latency_ring;
      if (state->latency_next == ring.size()) {
        ring.push_back(result.seconds);  // still growing to the window
      } else {
        ring[state->latency_next] = result.seconds;
      }
      state->latency_next = (state->latency_next + 1) % options_.latency_window;
      state->latency_count =
          std::min(state->latency_count + 1, options_.latency_window);
    }
    state->io.Accumulate(request_io);
  }
  state->knn_leaf_visits.fetch_add(request_knn.leaf_visits,
                                   std::memory_order_relaxed);
  state->knn_early_terminations.fetch_add(request_knn.early_terminations,
                                          std::memory_order_relaxed);
  // Count-gated global cache rebalance (no-op without a CacheManager):
  // every N-th request recomputes per-shard capacity targets from the
  // observed demand misses.
  index_->MaybeRebalanceCache();
  return result;
}

MetricsSnapshot Server::Snapshot() const {
  MetricsSnapshot snap;
  snap.window_seconds =
      SteadySeconds() - window_start_.load(std::memory_order_relaxed);

  {
    ReaderLock lock(&tenants_mu_);
    snap.tenants.reserve(tenants_.size());
    for (const auto& [name, state] : tenants_) {
      TenantMetrics t;
      t.tenant = name;
#define HT_TENANT_SNAPSHOT(counter) \
  t.counter = state->counter.load(std::memory_order_relaxed);
      HT_TENANT_COUNTERS(HT_TENANT_SNAPSHOT)
#undef HT_TENANT_SNAPSHOT
      if (snap.window_seconds > 0.0) {
        t.qps = static_cast<double>(t.completed) / snap.window_seconds;
      }
      std::vector<double> samples;
      {
        MutexLock stats_lock(&state->stats_mu);
        samples.assign(state->latency_ring.begin(),
                       state->latency_ring.begin() +
                           static_cast<ptrdiff_t>(state->latency_count));
        t.io = state->io;
      }
      t.latency = SummarizeLatencies(std::move(samples));
      t.quant_prune_rate = t.io.QuantPruneRate();
      snap.tenants.push_back(std::move(t));
    }
  }
  std::sort(snap.tenants.begin(), snap.tenants.end(),
            [](const TenantMetrics& a, const TenantMetrics& b) {
              return a.tenant < b.tenant;
            });

  snap.per_shard_io.reserve(index_->shards());
  snap.per_shard_cache.reserve(index_->shards());
  for (size_t s = 0; s < index_->shards(); ++s) {
    snap.per_shard_io.push_back(index_->shard_io(s));
    snap.total_io.Accumulate(snap.per_shard_io.back());
    snap.per_shard_cache.push_back(index_->shard_cache(s));
  }
  return snap;
}

void Server::ResetMetrics() {
  WriterLock lock(&tenants_mu_);
  for (auto& [name, state] : tenants_) {
#define HT_TENANT_RESET(counter) \
  state->counter.store(0, std::memory_order_relaxed);
    HT_TENANT_COUNTERS(HT_TENANT_RESET)
#undef HT_TENANT_RESET
    MutexLock stats_lock(&state->stats_mu);
    state->latency_next = 0;
    state->latency_count = 0;
    state->io.Reset();
  }
  index_->ResetIo();
  window_start_.store(SteadySeconds(), std::memory_order_relaxed);
}

}  // namespace ht

#include "serve/admission.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace ht {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Effective bucket capacity: an explicit burst wins; otherwise a
/// configured rate gets max(1, rate) so it can always admit one request.
double BurstOf(const TenantQuota& quota) {
  if (quota.burst > 0.0) return quota.burst;
  return std::max(1.0, quota.rate_qps);
}

}  // namespace

void AdmissionTicket::Release() {
  if (gate_ != nullptr) {
    gate_->ReleaseSlot();
    gate_ = nullptr;
  }
}

AdmissionGate::AdmissionGate(Clock clock)
    : clock_(clock ? std::move(clock) : Clock(SteadySeconds)),
      last_refill_(clock_()) {}

void AdmissionGate::SetQuota(const TenantQuota& quota) {
  MutexLock lock(&mu_);
  quota_ = quota;
  tokens_ = BurstOf(quota);  // bucket starts full
  last_refill_ = clock_();
}

void AdmissionGate::ReleaseSlot() {
  {
    MutexLock lock(&mu_);
    if (in_flight_ > 0) --in_flight_;
  }
  slot_free_.NotifyOne();
}

Result<AdmissionTicket> AdmissionGate::Admit(double max_wait_seconds) {
  MutexLock lock(&mu_);

  // Rate gate first: overload is rejected immediately, not queued.
  if (quota_.rate_qps > 0.0) {
    const double now = clock_();
    tokens_ = std::min(BurstOf(quota_),
                       tokens_ + (now - last_refill_) * quota_.rate_qps);
    last_refill_ = now;
    if (tokens_ < 1.0) {
      return Status::ResourceExhausted("tenant over admission rate");
    }
    tokens_ -= 1.0;
  }

  AdmissionTicket ticket;
  ticket.knn_epsilon_ = quota_.knn_epsilon;
  ticket.knn_max_leaf_visits_ = quota_.knn_max_leaf_visits;
  // Concurrency gate: wait (bounded) for an in-flight slot. The wait is
  // the admission queueing delay the ticket reports back to the server.
  if (quota_.max_in_flight > 0) {
    const double cap =
        max_wait_seconds > 0.0 ? max_wait_seconds : quota_.max_queue_seconds;
    const auto wait_start = std::chrono::steady_clock::now();
    const auto wait_deadline =
        wait_start + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(std::max(0.0, cap)));
    while (in_flight_ >= quota_.max_in_flight) {
      if (slot_free_.WaitUntil(lock, wait_deadline) ==
              std::cv_status::timeout &&
          in_flight_ >= quota_.max_in_flight) {
        return Status::DeadlineExceeded(
            "tenant in-flight queue wait exceeded budget");
      }
    }
    ticket.queue_wait_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wait_start)
            .count();
    ++in_flight_;
    ticket.gate_ = this;
  }
  return ticket;
}

}  // namespace ht

// Copyright 2026 The HybridTree Authors.
// LatencyInjectingPagedFile: a PagedFile decorator that charges a fixed
// per-call plus per-page delay on every read — and, with a separately
// configured write cost model, on every blocking write — making cold-I/O
// experiments deterministic and portable. The I/O-pipeline cost model:
//
//     cost(Read)          = per_call + per_page
//     cost(ReadBatch(n))  = per_call + n * per_page
//     cost(Write)         = write_per_call + write_per_page
//     cost(WriteBatch(n)) = write_per_call + n * write_per_page
//
// i.e. a batched/vectored transfer pays the call setup (seek, syscall,
// device latency) once, so coalescing n pages into one round trip saves
// (n-1) * per_call — the effect bench_io sweeps on the read side and
// bench_ingest sweeps on the write side, asserted via read_calls() /
// write_calls(). Write latencies default to 0 so read-path experiments
// are unaffected unless they opt in.
//
// Delays use sleep_for (not a busy spin), so a concurrent reader — or a
// parallel bulk-load worker writing its own page range — genuinely
// overlaps injected latency with another thread's work even on a
// single-core host.
//
// Thread-safety matches the wrapped file: reads may run concurrently, as
// may writes of disjoint page sets (the call counters are atomic);
// allocation and same-page write/read races require external
// serialization.

#pragma once

#include <atomic>
#include <chrono>
#include <thread>

#include "storage/paged_file.h"

namespace ht {

class LatencyInjectingPagedFile final : public PagedFile {
 public:
  /// Wraps `base` (not owned; must outlive this wrapper). Latencies are in
  /// seconds and may be changed at any quiescent point via set_latency().
  explicit LatencyInjectingPagedFile(PagedFile* base,
                                     double per_call_seconds = 0.0,
                                     double per_page_seconds = 0.0)
      : base_(base) {
    set_latency(per_call_seconds, per_page_seconds);
  }

  void set_latency(double per_call_seconds, double per_page_seconds) {
    per_call_ns_.store(ToNs(per_call_seconds), std::memory_order_relaxed);
    per_page_ns_.store(ToNs(per_page_seconds), std::memory_order_relaxed);
  }

  /// Write cost model, independent of the read model (defaults to free so
  /// read-path experiments keep their historical behaviour).
  void set_write_latency(double per_call_seconds, double per_page_seconds) {
    write_per_call_ns_.store(ToNs(per_call_seconds),
                             std::memory_order_relaxed);
    write_per_page_ns_.store(ToNs(per_page_seconds),
                             std::memory_order_relaxed);
  }

  /// Number of blocking read round trips observed (Read and ReadBatch
  /// calls each count once, regardless of batch size).
  uint64_t read_calls() const {
    return read_calls_.load(std::memory_order_relaxed);
  }
  void ResetReadCalls() { read_calls_.store(0, std::memory_order_relaxed); }

  /// Number of blocking write round trips observed (Write and WriteBatch
  /// calls each count once, regardless of batch size) — the write
  /// amplification figure bench_ingest reports.
  uint64_t write_calls() const {
    return write_calls_.load(std::memory_order_relaxed);
  }
  void ResetWriteCalls() { write_calls_.store(0, std::memory_order_relaxed); }

  size_t page_size() const override { return base_->page_size(); }
  PageId page_count() const override { return base_->page_count(); }

  Status Read(PageId id, Page* out) override {
    read_calls_.fetch_add(1, std::memory_order_relaxed);
    Inject(1);
    return base_->Read(id, out);
  }

  Status ReadBatch(std::span<const PageId> ids,
                   std::span<Page* const> outs) override {
    if (ids.empty()) return base_->ReadBatch(ids, outs);
    read_calls_.fetch_add(1, std::memory_order_relaxed);
    Inject(ids.size());
    return base_->ReadBatch(ids, outs);
  }

  Status Write(PageId id, const Page& page) override {
    write_calls_.fetch_add(1, std::memory_order_relaxed);
    InjectWrite(1);
    return base_->Write(id, page);
  }

  Status WriteBatch(std::span<const PageId> ids,
                    std::span<const Page* const> pages) override {
    if (ids.empty()) return base_->WriteBatch(ids, pages);
    write_calls_.fetch_add(1, std::memory_order_relaxed);
    InjectWrite(ids.size());
    return base_->WriteBatch(ids, pages);
  }

  // Allocation/free are not delayed: allocation extends the file inside
  // the same OS write the cost model already charges when the page content
  // lands, and charging it twice would double-count bulk loads.
  Result<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }
  Status Sync() override { return base_->Sync(); }

  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  static int64_t ToNs(double seconds) {
    return static_cast<int64_t>(seconds * 1e9);
  }

  void Inject(size_t pages) {
    const int64_t ns =
        per_call_ns_.load(std::memory_order_relaxed) +
        static_cast<int64_t>(pages) *
            per_page_ns_.load(std::memory_order_relaxed);
    if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  }

  void InjectWrite(size_t pages) {
    const int64_t ns =
        write_per_call_ns_.load(std::memory_order_relaxed) +
        static_cast<int64_t>(pages) *
            write_per_page_ns_.load(std::memory_order_relaxed);
    if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  }

  PagedFile* base_;
  /// Relaxed throughout: the knobs are set by the bench driver between
  /// phases and polled by reading threads (a stale read injects the previous
  /// latency once), and the call counters are independent tallies with no
  /// ordering relationship to any other data.
  std::atomic<int64_t> per_call_ns_{0};
  std::atomic<int64_t> per_page_ns_{0};
  std::atomic<int64_t> write_per_call_ns_{0};
  std::atomic<int64_t> write_per_page_ns_{0};
  std::atomic<uint64_t> read_calls_{0};
  std::atomic<uint64_t> write_calls_{0};
};

}  // namespace ht

// Copyright 2026 The HybridTree Authors.
// Span tracing for the benchmark's traced run. Every span comes from the
// benchmark's own code, around a call into one layer's public API:
//
//   client calls      serve.execute (Server::Execute), core.* on tree and
//                     ingest (HybridTree calls made directly)
//   replays           shard.* (ShardedIndex::Search* with the request's
//                     ExecOptions) and core.* (each shard tree) sent after
//                     the client call; their parent is the span they
//                     replay, though they do not nest inside it in time
//   file calls        file.* from TracedPagedFile, nested in whatever span
//                     is open on the calling thread
//
// A span's self time is its duration minus the part of its interval that
// its (time-nested) children cover. Spans are kept in memory, up to a cap,
// and written out when the run ends; layer metrics are computed from the
// SpanScope values as the run goes, so the cap never changes a metric.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "storage/paged_file.h"

namespace perfbench {

enum class SpanName : uint16_t {
  kServeExecute,
  kShardKnn,
  kShardBox,
  kShardRange,
  kCoreKnn,
  kCoreBox,
  kCoreRange,
  kCoreInsertBatch,
  kCoreFlush,
  kFileRead,
  kFileReadBatch,
  kFileWrite,
  kFileWriteBatch,
  kFileSync,
};
const char* SpanNameString(SpanName name);

/// Steady-clock nanoseconds (the time base of every span).
int64_t NowNs();

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = none
  uint64_t request = 0;
  SpanName name = SpanName::kServeExecute;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Duration of [start, end] minus the part covered by the union of
/// `children` intervals (each clipped to [start, end]).
int64_t SelfTimeNs(int64_t start, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children);

class Tracer {
 public:
  explicit Tracer(size_t max_stored_spans = 1 << 17);

  /// Tracing is off until enabled; a disabled tracer records nothing.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);

  uint64_t stored() const;
  uint64_t dropped() const;

  /// Writes `header` (one JSON line) and then every stored span as one
  /// JSON object per line.
  bool WriteJsonLines(const std::string& path, const std::string& header) const;

 private:
  const size_t max_stored_;
  // Relaxed: an on/off switch flipped between phases while no traced call
  // is in flight; the id counter only has to hand out distinct values.
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t dropped_ = 0;     // guarded by mu_
};

/// RAII span. With a null or disabled tracer it only measures its own
/// duration (so callers can time calls the same way in both modes). The
/// span is pushed on a thread-local stack while open: spans opened on the
/// same thread inside it become its children and are subtracted from its
/// self time. `caused_by` names the parent explicitly (replay spans);
/// otherwise the parent is the innermost open span on this thread.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanName name, uint64_t request,
            uint32_t caused_by = 0);
  ~SpanScope() { End(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Closes the span (idempotent); durations are valid afterwards.
  void End();
  uint32_t id() const { return span_.id; }
  int64_t duration_ns() const { return span_.end_ns - span_.start_ns; }
  int64_t end_ns() const { return span_.end_ns; }
  int64_t self_ns() const { return self_ns_; }

 private:
  Tracer* tracer_;  // null when not recording
  Span span_;
  bool open_ = true;
  int64_t self_ns_ = 0;
  std::vector<std::pair<int64_t, int64_t>> children_;
  SpanScope* outer_ = nullptr;  // enclosing open span on this thread
};

/// File-layer counters collected by TracedPagedFile while tracing is on.
struct FileCounters {
  uint64_t read_calls = 0;
  uint64_t pages_read = 0;
  int64_t read_ns = 0;
  uint64_t write_calls = 0;
  uint64_t pages_written = 0;
  int64_t write_ns = 0;
  uint64_t sync_calls = 0;
  int64_t sync_ns = 0;

  FileCounters Delta(const FileCounters& since) const;
  void Accumulate(const FileCounters& other);
};

/// PagedFile decorator that records file.* spans and counters around every
/// call while its tracer is enabled. Every call, and stats(), passes
/// through unchanged. Owns the wrapped file.
class TracedPagedFile final : public ht::PagedFile {
 public:
  TracedPagedFile(std::unique_ptr<ht::PagedFile> base, Tracer* tracer)
      : base_(std::move(base)), tracer_(tracer) {}

  FileCounters counters() const;

  size_t page_size() const override { return base_->page_size(); }
  ht::PageId page_count() const override { return base_->page_count(); }
  ht::Status Read(ht::PageId id, ht::Page* out) override;
  ht::Status ReadBatch(std::span<const ht::PageId> ids,
                       std::span<ht::Page* const> outs) override;
  ht::Status Write(ht::PageId id, const ht::Page& page) override;
  ht::Status WriteBatch(std::span<const ht::PageId> ids,
                        std::span<const ht::Page* const> pages) override;
  ht::Result<ht::PageId> Allocate() override { return base_->Allocate(); }
  ht::Status Free(ht::PageId id) override { return base_->Free(id); }
  ht::Status Sync() override;
  ht::IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  std::unique_ptr<ht::PagedFile> base_;
  Tracer* tracer_;
  // Relaxed: independent tallies read after the traced phase has ended.
  std::atomic<uint64_t> read_calls_{0}, pages_read_{0}, write_calls_{0},
      pages_written_{0}, sync_calls_{0};
  std::atomic<int64_t> read_ns_{0}, write_ns_{0}, sync_ns_{0};
};

}  // namespace perfbench

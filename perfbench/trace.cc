// Copyright 2026 The HybridTree Authors.

#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

namespace {

// Innermost open span on this thread (see SpanScope).
thread_local SpanScope* tls_open_span = nullptr;

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kServeExecute:
      return "serve.execute";
    case SpanName::kShardKnn:
      return "shard.knn";
    case SpanName::kShardBox:
      return "shard.box";
    case SpanName::kShardRange:
      return "shard.range";
    case SpanName::kCoreKnn:
      return "core.knn";
    case SpanName::kCoreBox:
      return "core.box";
    case SpanName::kCoreRange:
      return "core.range";
    case SpanName::kCoreInsertBatch:
      return "core.insert_batch";
    case SpanName::kCoreFlush:
      return "core.flush";
    case SpanName::kFileRead:
      return "file.read";
    case SpanName::kFileReadBatch:
      return "file.read_batch";
    case SpanName::kFileWrite:
      return "file.write";
    case SpanName::kFileWriteBatch:
      return "file.write_batch";
    case SpanName::kFileSync:
      return "file.sync";
  }
  return "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SelfTimeNs(int64_t start, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start;  // end of the covered prefix so far
  for (auto [lo, hi] : children) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (end - start) - covered;
}

Tracer::Tracer(size_t max_stored_spans) : max_stored_(max_stored_spans) {}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < max_stored_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

uint64_t Tracer::stored() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            const std::string& header) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  const int64_t t0 = spans_.empty() ? 0 : std::min_element(
      spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
        return a.start_ns < b.start_ns;
      })->start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %" PRIu32 ", \"parent\": %" PRIu32
                 ", \"request\": %" PRIu64
                 ", \"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 s.id, s.parent, s.request, SpanNameString(s.name),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - t0) / 1e3);
  }
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer* tracer, SpanName name, uint64_t request,
                     uint32_t caused_by)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  span_.name = name;
  span_.request = request;
  if (tracer_ != nullptr) {
    span_.id = tracer_->NextId();
    outer_ = tls_open_span;
    span_.parent =
        caused_by != 0 ? caused_by : (outer_ != nullptr ? outer_->id() : 0);
    tls_open_span = this;
  }
  span_.start_ns = NowNs();
}

void SpanScope::End() {
  if (!open_) return;
  open_ = false;
  span_.end_ns = NowNs();
  if (tracer_ == nullptr) {
    self_ns_ = duration_ns();
    return;
  }
  tls_open_span = outer_;
  if (outer_ != nullptr) {
    outer_->children_.emplace_back(span_.start_ns, span_.end_ns);
  }
  self_ns_ = SelfTimeNs(span_.start_ns, span_.end_ns, std::move(children_));
  tracer_->Record(span_);
}

FileCounters FileCounters::Delta(const FileCounters& since) const {
  FileCounters d;
  d.read_calls = read_calls - since.read_calls;
  d.pages_read = pages_read - since.pages_read;
  d.read_ns = read_ns - since.read_ns;
  d.write_calls = write_calls - since.write_calls;
  d.pages_written = pages_written - since.pages_written;
  d.write_ns = write_ns - since.write_ns;
  d.sync_calls = sync_calls - since.sync_calls;
  d.sync_ns = sync_ns - since.sync_ns;
  return d;
}

void FileCounters::Accumulate(const FileCounters& other) {
  read_calls += other.read_calls;
  pages_read += other.pages_read;
  read_ns += other.read_ns;
  write_calls += other.write_calls;
  pages_written += other.pages_written;
  write_ns += other.write_ns;
  sync_calls += other.sync_calls;
  sync_ns += other.sync_ns;
}

FileCounters TracedPagedFile::counters() const {
  FileCounters c;
  c.read_calls = read_calls_.load(std::memory_order_relaxed);
  c.pages_read = pages_read_.load(std::memory_order_relaxed);
  c.read_ns = read_ns_.load(std::memory_order_relaxed);
  c.write_calls = write_calls_.load(std::memory_order_relaxed);
  c.pages_written = pages_written_.load(std::memory_order_relaxed);
  c.write_ns = write_ns_.load(std::memory_order_relaxed);
  c.sync_calls = sync_calls_.load(std::memory_order_relaxed);
  c.sync_ns = sync_ns_.load(std::memory_order_relaxed);
  return c;
}

namespace {

// Times one file call under a span and bumps the matching counters.
template <typename Fn>
ht::Status Traced(Tracer* tracer, SpanName name, std::atomic<uint64_t>& calls,
                  std::atomic<uint64_t>* pages, uint64_t n_pages,
                  std::atomic<int64_t>& ns, Fn&& fn) {
  SpanScope span(tracer, name, 0);
  ht::Status st = fn();
  span.End();
  calls.fetch_add(1, std::memory_order_relaxed);
  if (pages != nullptr) pages->fetch_add(n_pages, std::memory_order_relaxed);
  ns.fetch_add(span.duration_ns(), std::memory_order_relaxed);
  return st;
}

}  // namespace

ht::Status TracedPagedFile::Read(ht::PageId id, ht::Page* out) {
  if (!tracing()) return base_->Read(id, out);
  return Traced(tracer_, SpanName::kFileRead, read_calls_, &pages_read_, 1,
                read_ns_, [&] { return base_->Read(id, out); });
}

ht::Status TracedPagedFile::ReadBatch(std::span<const ht::PageId> ids,
                                      std::span<ht::Page* const> outs) {
  if (!tracing() || ids.empty()) return base_->ReadBatch(ids, outs);
  return Traced(tracer_, SpanName::kFileReadBatch, read_calls_, &pages_read_,
                ids.size(), read_ns_,
                [&] { return base_->ReadBatch(ids, outs); });
}

ht::Status TracedPagedFile::Write(ht::PageId id, const ht::Page& page) {
  if (!tracing()) return base_->Write(id, page);
  return Traced(tracer_, SpanName::kFileWrite, write_calls_, &pages_written_,
                1, write_ns_, [&] { return base_->Write(id, page); });
}

ht::Status TracedPagedFile::WriteBatch(std::span<const ht::PageId> ids,
                                       std::span<const ht::Page* const> pages) {
  if (!tracing() || ids.empty()) return base_->WriteBatch(ids, pages);
  return Traced(tracer_, SpanName::kFileWriteBatch, write_calls_,
                &pages_written_, ids.size(), write_ns_,
                [&] { return base_->WriteBatch(ids, pages); });
}

ht::Status TracedPagedFile::Sync() {
  if (!tracing()) return base_->Sync();
  return Traced(tracer_, SpanName::kFileSync, sync_calls_, nullptr, 0, sync_ns_,
                [&] { return base_->Sync(); });
}

}  // namespace perfbench

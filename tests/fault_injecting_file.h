// Copyright 2026 The HybridTree Authors.
// Test-only PagedFile decorators for crash-consistency tests:
//
//  * WriteRecordingPagedFile logs the order of page writes and Sync calls,
//    so tests can assert durability ordering (e.g. "the metadata page is
//    written after every tree page and before the final sync").
//  * FaultInjectingPagedFile fails all writes after a budget of per-page
//    writes is exhausted, simulating a crash part-way through a flush. A
//    failing call writes nothing (the failure is atomic at call
//    granularity; DiskPagedFile's own short-transfer loop is exercised by
//    the paged_file tests, not here). A read budget does the same for
//    reads, so a search can be made to fail part-way.

#pragma once

#include <atomic>
#include <limits>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "storage/paged_file.h"

namespace ht {

/// One recorded durability event: a page write or a sync barrier.
struct WriteEvent {
  static constexpr PageId kSync = kInvalidPageId;
  PageId page = kInvalidPageId;  // kSync for a Sync() call
  bool IsSync() const { return page == kSync; }
};

class WriteRecordingPagedFile final : public PagedFile {
 public:
  explicit WriteRecordingPagedFile(PagedFile* base) : base_(base) {}

  std::vector<WriteEvent> TakeEvents() {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<WriteEvent> out = std::move(events_);
    events_.clear();
    return out;
  }

  size_t page_size() const override { return base_->page_size(); }
  PageId page_count() const override { return base_->page_count(); }
  Status Read(PageId id, Page* out) override { return base_->Read(id, out); }
  Status ReadBatch(std::span<const PageId> ids,
                   std::span<Page* const> outs) override {
    return base_->ReadBatch(ids, outs);
  }

  Status Write(PageId id, const Page& page) override {
    HT_RETURN_NOT_OK(base_->Write(id, page));
    Record(id);
    return Status::OK();
  }

  Status WriteBatch(std::span<const PageId> ids,
                    std::span<const Page* const> pages) override {
    HT_RETURN_NOT_OK(base_->WriteBatch(ids, pages));
    for (PageId id : ids) Record(id);
    return Status::OK();
  }

  Status Sync() override {
    HT_RETURN_NOT_OK(base_->Sync());
    Record(WriteEvent::kSync);
    return Status::OK();
  }

  Result<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  void Record(PageId id) {
    std::lock_guard<std::mutex> g(mu_);
    events_.push_back(WriteEvent{id});
  }

  PagedFile* base_;
  std::mutex mu_;
  std::vector<WriteEvent> events_;
};

class FaultInjectingPagedFile final : public PagedFile {
 public:
  explicit FaultInjectingPagedFile(PagedFile* base) : base_(base) {}

  /// The next `pages` per-page writes succeed; everything after fails with
  /// IOError until the budget is reset. A WriteBatch larger than the
  /// remaining budget fails whole (nothing lands).
  void SetWriteBudget(uint64_t pages) {
    budget_.store(pages, std::memory_order_relaxed);
  }
  /// The next `pages` per-page reads succeed; everything after fails with
  /// IOError until the budget is reset. A ReadBatch larger than the
  /// remaining budget fails whole.
  void SetReadBudget(uint64_t pages) {
    read_budget_.store(pages, std::memory_order_relaxed);
  }
  void DisableFaults() {
    budget_.store(std::numeric_limits<uint64_t>::max(),
                  std::memory_order_relaxed);
    read_budget_.store(std::numeric_limits<uint64_t>::max(),
                       std::memory_order_relaxed);
  }
  uint64_t failed_writes() const {
    return failed_.load(std::memory_order_relaxed);
  }

  size_t page_size() const override { return base_->page_size(); }
  PageId page_count() const override { return base_->page_count(); }
  Status Read(PageId id, Page* out) override {
    HT_RETURN_NOT_OK(Consume(&read_budget_, 1));
    return base_->Read(id, out);
  }
  Status ReadBatch(std::span<const PageId> ids,
                   std::span<Page* const> outs) override {
    HT_RETURN_NOT_OK(Consume(&read_budget_, ids.size()));
    return base_->ReadBatch(ids, outs);
  }

  Status Write(PageId id, const Page& page) override {
    HT_RETURN_NOT_OK(Consume(&budget_, 1));
    return base_->Write(id, page);
  }

  Status WriteBatch(std::span<const PageId> ids,
                    std::span<const Page* const> pages) override {
    HT_RETURN_NOT_OK(Consume(&budget_, ids.size()));
    return base_->WriteBatch(ids, pages);
  }

  Status Sync() override { return base_->Sync(); }
  Result<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }
  IoStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  Status Consume(std::atomic<uint64_t>* budget, uint64_t pages) {
    uint64_t have = budget->load(std::memory_order_relaxed);
    if (have == std::numeric_limits<uint64_t>::max()) return Status::OK();
    if (pages > have) {
      if (budget != &budget_) return Status::IOError("injected read fault");
      failed_.fetch_add(1, std::memory_order_relaxed);
      return Status::IOError("injected write fault");
    }
    budget->store(have - pages, std::memory_order_relaxed);
    return Status::OK();
  }

  PagedFile* base_;
  std::atomic<uint64_t> budget_{std::numeric_limits<uint64_t>::max()};
  std::atomic<uint64_t> read_budget_{std::numeric_limits<uint64_t>::max()};
  std::atomic<uint64_t> failed_{0};
};

}  // namespace ht

// Copyright 2026 The HybridTree Authors.
// PagedFile: the backing store for all disk-based trees in the repository.
//
// Two backends implement the interface: DiskPagedFile (POSIX file I/O, used
// by the persistence example and the persistence tests) and MemPagedFile
// (in-memory, used by tests and by benchmarks where only *counted* I/O
// matters — the paper's metrics are access counts and normalized ratios, so
// the benchmarks do not need to pay real disk latency).
//
// Each backend moves pages along one path per direction: Read and Write are
// its ReadBatch and WriteBatch on one page, with the same validation and
// the same copy (MemPagedFile) or the same vectored-I/O loop
// (DiskPagedFile, which also moves its superblock and freelist links
// through that loop). Only the counters differ: a single-page call charges
// no batch round trip.
//
// Free pages are tracked with an intrusive freelist threaded through the
// first 4 bytes of each free page, so allocation state persists on disk.

#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace ht {

/// Abstract fixed-page-size random access file.
///
/// Thread-safety contract (the basis of the buffer pool's prefetch and
/// write-back pipelines): Read() and ReadBatch() are safe to call
/// concurrently from multiple threads, and concurrently with
/// Write()/WriteBatch() of *other* pages — the disk backend uses
/// positional preadv/pwritev (no shared file offset) and the memory
/// backend only touches the target pages' bytes. Write()/WriteBatch()
/// calls touching disjoint page sets may likewise run concurrently (the
/// parallel bulk loader writes disjoint preallocated ranges from worker
/// threads). Allocate(), Free(), Sync(), and a write racing a read of the
/// SAME page require external serialization (BufferPool keeps its file
/// mutex for exactly those).
class PagedFile {
 public:
  virtual ~PagedFile() = default;

  /// Page size in bytes; constant for the lifetime of the file.
  virtual size_t page_size() const = 0;

  /// Number of pages ever allocated (including freed ones still on disk).
  virtual PageId page_count() const = 0;

  /// Reads page `id` into `out` (must have size() == page_size()).
  virtual Status Read(PageId id, Page* out) = 0;

  /// Reads ids[i] into *outs[i] in one round trip. `ids` and `outs` must
  /// have equal length; every output page must have size() == page_size().
  /// Duplicate ids are allowed (each occurrence is filled). Backends
  /// validate the whole batch before issuing I/O, so on error no promise
  /// is made about output contents but the file itself is untouched.
  /// Counts one batch_read plus ids.size() physical reads.
  virtual Status ReadBatch(std::span<const PageId> ids,
                           std::span<Page* const> outs) = 0;

  /// Writes `page` (size() == page_size()) as page `id`.
  virtual Status Write(PageId id, const Page& page) = 0;

  /// Writes *pages[i] as page ids[i] in one round trip — the write-side
  /// dual of ReadBatch, with the same validate-before-I/O contract: the
  /// whole batch (lengths, ids, page sizes) is checked before any byte is
  /// written, so on error the file is untouched. Unlike ReadBatch,
  /// duplicate ids are rejected (InvalidArgument): after offset sorting,
  /// "which occurrence wins" would be unspecified, and no caller has a
  /// legitimate reason to write one page twice in a single batch.
  /// Counts one batch_write plus ids.size() writes.
  virtual Status WriteBatch(std::span<const PageId> ids,
                            std::span<const Page* const> pages) = 0;

  /// Allocates a fresh (or recycled) page id.
  virtual Result<PageId> Allocate() = 0;

  /// Returns page `id` to the freelist. The page must not be used again
  /// until re-allocated.
  virtual Status Free(PageId id) = 0;

  /// Flushes buffered writes to durable storage (no-op for memory backend).
  virtual Status Sync() = 0;

  /// Snapshot of the raw file-level I/O statistics. Counters are bumped
  /// with relaxed atomic adds so concurrent readers (query threads and the
  /// prefetch fills they run) need no lock; the snapshot is not a
  /// consistent cut across counters, which is fine for accounting.
  virtual IoStats stats() const;
  virtual void ResetStats();

 protected:
  /// Adds `n` to one counter of the file's IoStats. Only the counters a
  /// raw file can observe move (physical_reads, writes, allocations,
  /// frees, batch_reads, batch_writes); logical reads and cache behaviour
  /// belong to BufferPool.
  void Count(uint64_t IoStats::*counter, uint64_t n) {
    std::atomic_ref<uint64_t>(io_.*counter)
        .fetch_add(n, std::memory_order_relaxed);
  }

 private:
  /// Touched only through relaxed std::atomic_ref operations: each counter
  /// is an independent tally, readers tolerate torn cross-counter views,
  /// and no counter publishes any other data.
  mutable IoStats io_;
};

/// In-memory backend.
class MemPagedFile final : public PagedFile {
 public:
  explicit MemPagedFile(size_t page_size = kDefaultPageSize);

  size_t page_size() const override { return page_size_; }
  PageId page_count() const override {
    return static_cast<PageId>(pages_.size());
  }
  Status Read(PageId id, Page* out) override;
  Status ReadBatch(std::span<const PageId> ids,
                   std::span<Page* const> outs) override;
  Status Write(PageId id, const Page& page) override;
  Status WriteBatch(std::span<const PageId> ids,
                    std::span<const Page* const> pages) override;
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Sync() override { return Status::OK(); }

 private:
  // The read and write paths: validate the whole request, charge it (a
  // batch round trip only when `batch`), then copy page by page. Nothing
  // to coalesce in memory, but a bad id still cannot leave a half-filled
  // or half-applied batch.
  Status ReadPages(std::span<const PageId> ids, std::span<Page* const> outs,
                   bool batch);
  Status WritePages(std::span<const PageId> ids,
                    std::span<const Page* const> pages, bool batch);
  bool Allocated(PageId id) const {
    return id < pages_.size() && pages_[id] != nullptr;
  }

  size_t page_size_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<PageId> free_list_;
};

/// POSIX file backend. The freelist head lives in the caller's metadata
/// page by convention; DiskPagedFile itself persists a tiny superblock
/// (page count + freelist head) in a sidecar header region at offset 0,
/// and user pages start at offset page_size.
class DiskPagedFile final : public PagedFile {
 public:
  ~DiskPagedFile() override;

  /// Creates a new file (truncating any existing one).
  static Result<std::unique_ptr<DiskPagedFile>> Create(
      const std::string& path, size_t page_size = kDefaultPageSize);

  /// Opens an existing file created by Create().
  static Result<std::unique_ptr<DiskPagedFile>> Open(const std::string& path);

  size_t page_size() const override { return page_size_; }
  PageId page_count() const override { return page_count_; }
  Status Read(PageId id, Page* out) override;
  Status ReadBatch(std::span<const PageId> ids,
                   std::span<Page* const> outs) override;
  Status Write(PageId id, const Page& page) override;
  Status WriteBatch(std::span<const PageId> ids,
                    std::span<const Page* const> pages) override;
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Sync() override;

 private:
  DiskPagedFile(int fd, size_t page_size);
  Status WriteSuperblock();
  // The read and write paths: validate the whole request, charge it (a
  // batch round trip only when `batch`), then move it through the file's
  // one transfer loop — pages sorted by file offset, runs of adjacent
  // pages coalesced into single vectored preadv/pwritev calls.
  Status ReadPages(std::span<const PageId> ids, std::span<Page* const> outs,
                   bool batch);
  Status WritePages(std::span<const PageId> ids,
                    std::span<const Page* const> pages, bool batch);

  int fd_ = -1;
  size_t page_size_ = 0;
  PageId page_count_ = 0;
  PageId free_head_ = kInvalidPageId;
};

}  // namespace ht

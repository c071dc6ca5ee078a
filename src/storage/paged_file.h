// Copyright 2026 The HybridTree Authors.
// PagedFile: the backing store for all disk-based trees in the repository.
//
// Two backends implement the interface: DiskPagedFile (POSIX file I/O, used
// by the persistence example and the persistence tests) and MemPagedFile
// (in-memory, used by tests and by benchmarks where only *counted* I/O
// matters — the paper's metrics are access counts and normalized ratios, so
// the benchmarks do not need to pay real disk latency).
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
/// positional pread/preadv/pwritev (no shared file offset) and the memory
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
  /// The default implementation is a loop over Read(); DiskPagedFile
  /// overrides it with offset-sorted, coalesced preadv calls.
  virtual Status ReadBatch(std::span<const PageId> ids,
                           std::span<Page* const> outs);

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
  /// The default implementation is a loop over Write(); DiskPagedFile
  /// overrides it with offset-sorted, coalesced pwritev calls.
  virtual Status WriteBatch(std::span<const PageId> ids,
                            std::span<const Page* const> pages);

  /// Allocates a fresh (or recycled) page id.
  virtual Result<PageId> Allocate() = 0;

  /// Returns page `id` to the freelist. The page must not be used again
  /// until re-allocated.
  virtual Status Free(PageId id) = 0;

  /// Flushes buffered writes to durable storage (no-op for memory backend).
  virtual Status Sync() = 0;

  /// Snapshot of the raw file-level I/O statistics. Counters are relaxed
  /// atomics so concurrent readers (query threads and the prefetch fills
  /// they run) can bump them without locks; the snapshot is not a
  /// consistent cut across counters, which is fine for accounting.
  virtual IoStats stats() const;
  virtual void ResetStats();

 protected:
  /// Lock-free counters (see stats()). Only the fields a raw file can
  /// observe are tracked; logical reads and cache behaviour belong to
  /// BufferPool. All accesses are relaxed: each counter is an independent
  /// tally, readers tolerate torn cross-counter views, and no counter
  /// publishes any other data.
  struct Counters {
    std::atomic<uint64_t> physical_reads{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> allocations{0};
    std::atomic<uint64_t> frees{0};
    std::atomic<uint64_t> batch_reads{0};
    std::atomic<uint64_t> batch_writes{0};
  };
  void BumpReads(uint64_t n) {
    counters_.physical_reads.fetch_add(n, std::memory_order_relaxed);
  }

  Counters counters_;
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
  // Nothing to coalesce in memory, but the whole batch is still validated
  // before the first copy so a bad id cannot leave a half-filled batch.
  Status ReadBatch(std::span<const PageId> ids,
                   std::span<Page* const> outs) override;
  Status Write(PageId id, const Page& page) override;
  // Same validate-then-copy shape as ReadBatch: a bad id or duplicate
  // cannot leave a half-applied batch.
  Status WriteBatch(std::span<const PageId> ids,
                    std::span<const Page* const> pages) override;
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Sync() override { return Status::OK(); }

 private:
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
  /// Scatter-gather implementation: requests are sorted by file offset,
  /// adjacent pages are coalesced into single vectored preadv calls.
  Status ReadBatch(std::span<const PageId> ids,
                   std::span<Page* const> outs) override;
  Status Write(PageId id, const Page& page) override;
  /// Gather-write implementation: requests are sorted by file offset,
  /// adjacent pages are coalesced into single vectored pwritev calls.
  Status WriteBatch(std::span<const PageId> ids,
                    std::span<const Page* const> pages) override;
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Sync() override;

 private:
  DiskPagedFile(int fd, size_t page_size);
  Status WriteSuperblock();
  Status ReadRaw(uint64_t offset, void* buf, size_t n);
  Status WriteRaw(uint64_t offset, const void* buf, size_t n);

  int fd_ = -1;
  size_t page_size_ = 0;
  PageId page_count_ = 0;
  PageId free_head_ = kInvalidPageId;
};

}  // namespace ht

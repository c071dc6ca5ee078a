#include "storage/paged_file.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "common/codec.h"

namespace ht {

// ---------------------------------------------------------------------------
// PagedFile (base)
// ---------------------------------------------------------------------------

IoStats PagedFile::stats() const {
  IoStats s;
  IoStats::ForEachCounterPair(s, io_, [](uint64_t& out, uint64_t& c) {
    out = std::atomic_ref<uint64_t>(c).load(std::memory_order_relaxed);
  });
  return s;
}

void PagedFile::ResetStats() {
  IoStats::ForEachCounterPair(io_, io_, [](uint64_t& c, uint64_t&) {
    std::atomic_ref<uint64_t>(c).store(0, std::memory_order_relaxed);
  });
}

namespace {
/// The checks every read and write runs on the whole request before any
/// I/O, so a bad request never leaves a half-filled or half-applied batch:
/// equal lengths, every buffer present and page-sized, every id allocated.
/// A write's ids must also be distinct: after offset sorting, which
/// occurrence landed last would be unspecified. A read fills every
/// occurrence of a repeated id.
template <typename PagePtr, typename Allocated>
Status ValidateRequest(std::span<const PageId> ids,
                       std::span<PagePtr const> pages, size_t page_size,
                       Allocated allocated) {
  constexpr bool kWrite = std::is_const_v<std::remove_pointer_t<PagePtr>>;
  if (ids.size() != pages.size()) {
    return Status::InvalidArgument("ids/pages length mismatch");
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!allocated(ids[i])) {
      return Status::NotFound(std::string(kWrite ? "write" : "read") +
                              " of unallocated page " +
                              std::to_string(ids[i]));
    }
    if (pages[i] == nullptr || pages[i]->size() != page_size) {
      return Status::InvalidArgument("page buffer size mismatch");
    }
  }
  if (kWrite && ids.size() > 1) {
    // O(n log n) over a scratch copy; write batches are bounded by the
    // dirty set, so this never dominates the I/O it guards.
    std::vector<PageId> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Status::InvalidArgument("duplicate page id in a write batch");
    }
  }
  return Status::OK();
}
}  // namespace

// ---------------------------------------------------------------------------
// MemPagedFile
// ---------------------------------------------------------------------------

MemPagedFile::MemPagedFile(size_t page_size) : page_size_(page_size) {}

Status MemPagedFile::Read(PageId id, Page* out) {
  return ReadPages({&id, 1}, {&out, 1}, /*batch=*/false);
}

Status MemPagedFile::ReadBatch(std::span<const PageId> ids,
                               std::span<Page* const> outs) {
  return ReadPages(ids, outs, /*batch=*/true);
}

Status MemPagedFile::ReadPages(std::span<const PageId> ids,
                               std::span<Page* const> outs, bool batch) {
  HT_RETURN_NOT_OK(ValidateRequest(
      ids, outs, page_size_, [this](PageId id) { return Allocated(id); }));
  if (ids.empty()) return Status::OK();
  if (batch) Count(&IoStats::batch_reads, 1);
  Count(&IoStats::physical_reads, ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    std::memcpy(outs[i]->data(), pages_[ids[i]]->data(), page_size_);
  }
  return Status::OK();
}

Status MemPagedFile::Write(PageId id, const Page& page) {
  const Page* p = &page;
  return WritePages({&id, 1}, {&p, 1}, /*batch=*/false);
}

Status MemPagedFile::WriteBatch(std::span<const PageId> ids,
                                std::span<const Page* const> pages) {
  return WritePages(ids, pages, /*batch=*/true);
}

Status MemPagedFile::WritePages(std::span<const PageId> ids,
                                std::span<const Page* const> pages,
                                bool batch) {
  HT_RETURN_NOT_OK(ValidateRequest(
      ids, pages, page_size_, [this](PageId id) { return Allocated(id); }));
  if (ids.empty()) return Status::OK();
  if (batch) Count(&IoStats::batch_writes, 1);
  Count(&IoStats::writes, ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    std::memcpy(pages_[ids[i]]->data(), pages[i]->data(), page_size_);
  }
  return Status::OK();
}

Result<PageId> MemPagedFile::Allocate() {
  Count(&IoStats::allocations, 1);
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    pages_[id] = std::make_unique<Page>(page_size_);
    return id;
  }
  pages_.push_back(std::make_unique<Page>(page_size_));
  return static_cast<PageId>(pages_.size() - 1);
}

Status MemPagedFile::Free(PageId id) {
  if (!Allocated(id)) {
    return Status::InvalidArgument("MemPagedFile: double free of page " +
                                   std::to_string(id));
  }
  pages_[id] = nullptr;
  free_list_.push_back(id);
  Count(&IoStats::frees, 1);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DiskPagedFile
// ---------------------------------------------------------------------------

namespace {
constexpr uint32_t kMagic = 0x48544446;  // "HTDF"
constexpr size_t kSuperblockSize = 24;   // magic,pagesize,count,freehead + pad
// Linux caps one vectored call at IOV_MAX (1024) segments.
constexpr size_t kMaxIov = 1024;

enum class Dir { kRead, kWrite };

/// User page `id` starts one page in: the superblock region comes first.
uint64_t PageOffset(PageId id, size_t page_size) {
  return (static_cast<uint64_t>(id) + 1) * page_size;
}

/// The one transfer loop: every byte a DiskPagedFile moves goes through
/// this preadv/pwritev call site. POSIX lets a call move fewer bytes than
/// asked for, or fail with EINTR before moving any; both resume here,
/// advancing the iovec array in place (the caller's array is consumed). A
/// read that meets end of file is Corruption: the file ends inside bytes
/// its superblock says it holds.
Status Transfer(int fd, Dir dir, uint64_t offset, struct iovec* iov,
                size_t n) {
  while (n > 0) {
    const int iovcnt = static_cast<int>(n);
    const auto at = static_cast<off_t>(offset);
    const ssize_t moved = dir == Dir::kRead ? ::preadv(fd, iov, iovcnt, at)
                                            : ::pwritev(fd, iov, iovcnt, at);
    if (moved < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          std::string(dir == Dir::kRead ? "preadv" : "pwritev") +
          " failed: " + std::strerror(errno));
    }
    if (moved == 0 && dir == Dir::kWrite) {
      return Status::IOError("pwritev made no progress");
    }
    if (moved == 0) {
      return Status::Corruption("file ends at byte " + std::to_string(offset) +
                                ", inside a range it holds (truncated?)");
    }
    offset += static_cast<uint64_t>(moved);
    size_t left = static_cast<size_t>(moved);
    while (n > 0 && left >= iov->iov_len) {  // segments now fully moved
      left -= iov->iov_len;
      ++iov;
      --n;
    }
    if (left > 0) {  // resume inside a partly moved segment
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::OK();
}

/// One contiguous byte range through the same loop.
Status Transfer(int fd, Dir dir, uint64_t offset, void* buf, size_t len) {
  struct iovec v = {buf, len};
  return Transfer(fd, dir, offset, &v, 1);
}

/// Moves page ids[i] to or from buf(i). The pages are sorted by file
/// offset, and each run of adjacent ids goes out as one vectored call of
/// at most kMaxIov iovecs. A repeated id breaks a run (equal offsets are
/// not adjacent), so a read fills every occurrence. One page allocates
/// nothing.
template <typename Buf>
Status TransferPages(int fd, Dir dir, size_t page_size,
                     std::span<const PageId> ids, Buf buf) {
  if (ids.size() == 1) {
    return Transfer(fd, dir, PageOffset(ids[0], page_size), buf(0),
                    page_size);
  }
  std::vector<uint32_t> order(ids.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return ids[a] < ids[b]; });
  std::vector<struct iovec> iov(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    iov[k] = {buf(order[k]), page_size};
  }
  size_t end = 0;
  for (size_t start = 0; start < order.size(); start = end) {
    end = start + 1;
    while (end < order.size() && end - start < kMaxIov &&
           ids[order[end]] == ids[order[end - 1]] + 1) {
      ++end;
    }
    HT_RETURN_NOT_OK(Transfer(fd, dir, PageOffset(ids[order[start]], page_size),
                              iov.data() + start, end - start));
  }
  return Status::OK();
}
}  // namespace

DiskPagedFile::DiskPagedFile(int fd, size_t page_size)
    : fd_(fd), page_size_(page_size) {}

DiskPagedFile::~DiskPagedFile() {
  if (fd_ >= 0) {
    // Best effort; callers needing durability must Sync() explicitly.
    (void)WriteSuperblock();
    ::close(fd_);
  }
}

Result<std::unique_ptr<DiskPagedFile>> DiskPagedFile::Create(
    const std::string& path, size_t page_size) {
  if (page_size < 64) {
    return Status::InvalidArgument("page size too small");
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  auto f = std::unique_ptr<DiskPagedFile>(new DiskPagedFile(fd, page_size));
  HT_RETURN_NOT_OK(f->WriteSuperblock());
  return f;
}

Result<std::unique_ptr<DiskPagedFile>> DiskPagedFile::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  // Read before the file object exists: its destructor rewrites the
  // superblock, which must not happen to a file that failed to open.
  uint8_t sb[kSuperblockSize];
  if (Status st = Transfer(fd, Dir::kRead, 0, sb, sizeof(sb)); !st.ok()) {
    ::close(fd);
    return Status(st.code(), "superblock of " + path + ": " + st.message());
  }
  Reader r(sb, sizeof(sb));
  uint32_t magic = r.GetU32();
  uint32_t page_size = r.GetU32();
  uint32_t page_count = r.GetU32();
  uint32_t free_head = r.GetU32();
  if (magic != kMagic) {
    ::close(fd);
    return Status::Corruption("bad magic in " + path);
  }
  auto f = std::unique_ptr<DiskPagedFile>(new DiskPagedFile(fd, page_size));
  f->page_count_ = page_count;
  f->free_head_ = free_head;
  return f;
}

Status DiskPagedFile::WriteSuperblock() {
  uint8_t sb[kSuperblockSize] = {0};
  Writer w(sb, sizeof(sb));
  w.PutU32(kMagic);
  w.PutU32(static_cast<uint32_t>(page_size_));
  w.PutU32(page_count_);
  w.PutU32(free_head_);
  return Transfer(fd_, Dir::kWrite, 0, sb, sizeof(sb));
}

Status DiskPagedFile::Read(PageId id, Page* out) {
  return ReadPages({&id, 1}, {&out, 1}, /*batch=*/false);
}

Status DiskPagedFile::ReadBatch(std::span<const PageId> ids,
                                std::span<Page* const> outs) {
  return ReadPages(ids, outs, /*batch=*/true);
}

Status DiskPagedFile::ReadPages(std::span<const PageId> ids,
                                std::span<Page* const> outs, bool batch) {
  HT_RETURN_NOT_OK(ValidateRequest(
      ids, outs, page_size_, [this](PageId id) { return id < page_count_; }));
  if (ids.empty()) return Status::OK();
  if (batch) Count(&IoStats::batch_reads, 1);
  Count(&IoStats::physical_reads, ids.size());
  return TransferPages(fd_, Dir::kRead, page_size_, ids,
                       [&](size_t i) -> void* { return outs[i]->data(); });
}

Status DiskPagedFile::Write(PageId id, const Page& page) {
  const Page* p = &page;
  return WritePages({&id, 1}, {&p, 1}, /*batch=*/false);
}

Status DiskPagedFile::WriteBatch(std::span<const PageId> ids,
                                 std::span<const Page* const> pages) {
  return WritePages(ids, pages, /*batch=*/true);
}

Status DiskPagedFile::WritePages(std::span<const PageId> ids,
                                 std::span<const Page* const> pages,
                                 bool batch) {
  HT_RETURN_NOT_OK(ValidateRequest(
      ids, pages, page_size_, [this](PageId id) { return id < page_count_; }));
  if (ids.empty()) return Status::OK();
  if (batch) Count(&IoStats::batch_writes, 1);
  Count(&IoStats::writes, ids.size());
  // iovec carries void* even for gather writes; the buffers are never
  // modified through it.
  return TransferPages(fd_, Dir::kWrite, page_size_, ids, [&](size_t i) {
    return static_cast<void*>(const_cast<uint8_t*>(pages[i]->data()));
  });
}

Result<PageId> DiskPagedFile::Allocate() {
  Count(&IoStats::allocations, 1);
  if (free_head_ != kInvalidPageId) {
    PageId id = free_head_;
    // The first 4 bytes of a free page link to the next free page.
    uint8_t link[4];
    HT_RETURN_NOT_OK(Transfer(fd_, Dir::kRead, PageOffset(id, page_size_),
                              link, sizeof(link)));
    Reader r(link, sizeof(link));
    free_head_ = r.GetU32();
    return id;
  }
  PageId id = page_count_++;
  // Extend the file with a zero page so subsequent reads succeed.
  Page zero(page_size_);
  HT_RETURN_NOT_OK(Transfer(fd_, Dir::kWrite, PageOffset(id, page_size_),
                            zero.data(), page_size_));
  return id;
}

Status DiskPagedFile::Free(PageId id) {
  if (id >= page_count_) {
    return Status::InvalidArgument("DiskPagedFile: free of unallocated page");
  }
  uint8_t link[4];
  Writer w(link, sizeof(link));
  w.PutU32(free_head_);
  HT_RETURN_NOT_OK(Transfer(fd_, Dir::kWrite, PageOffset(id, page_size_), link,
                            sizeof(link)));
  free_head_ = id;
  Count(&IoStats::frees, 1);
  return Status::OK();
}

Status DiskPagedFile::Sync() {
  HT_RETURN_NOT_OK(WriteSuperblock());
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace ht

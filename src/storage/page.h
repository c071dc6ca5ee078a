// Copyright 2026 The HybridTree Authors.
// Fixed-size page abstraction shared by all disk-based index structures.

#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

namespace ht {

/// Page identifier within a PagedFile. Page 0 is reserved by convention for
/// file metadata; kInvalidPageId marks "no page".
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xffffffffu;

/// Default page size used throughout the paper's evaluation (§4: "we use a
/// page size of 4096 bytes").
inline constexpr size_t kDefaultPageSize = 4096;

/// A page image in memory. Owns `size` bytes, zero-initialized.
///
/// The buffer is aligned to kAlignment (one cache line, and enough for any
/// current SIMD load width) so batched distance kernels scanning a pinned
/// frame start from an aligned base. Point blocks inside a data page still
/// sit at arbitrary float offsets (the 4-byte header precedes them), so the
/// kernels use unaligned loads — the frame alignment buys predictable cache
/// -line splits, not aligned-instruction selection.
class Page {
 public:
  static constexpr size_t kAlignment = 64;

  explicit Page(size_t size = kDefaultPageSize)
      : size_(size), data_(Allocate(size)) {
    std::memset(data_, 0, size_);
  }
  Page(const Page& other) : size_(other.size_), data_(Allocate(other.size_)) {
    std::memcpy(data_, other.data_, size_);
  }
  Page(Page&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        data_(std::exchange(other.data_, nullptr)) {}
  Page& operator=(const Page& other) {
    if (this != &other) {
      Page copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  Page& operator=(Page&& other) noexcept {
    if (this != &other) {
      Deallocate(data_);
      size_ = std::exchange(other.size_, 0);
      data_ = std::exchange(other.data_, nullptr);
    }
    return *this;
  }
  ~Page() { Deallocate(data_); }

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// Frees the buffer, leaving an empty page (size 0) until reassigned.
  void Release() noexcept {
    Deallocate(std::exchange(data_, nullptr));
    size_ = 0;
  }

 private:
  static uint8_t* Allocate(size_t size) {
    if (size == 0) return nullptr;
    return static_cast<uint8_t*>(
        ::operator new(size, std::align_val_t{kAlignment}));
  }
  static void Deallocate(uint8_t* p) {
    if (p != nullptr) ::operator delete(p, std::align_val_t{kAlignment});
  }

  size_t size_;
  uint8_t* data_;
};

}  // namespace ht

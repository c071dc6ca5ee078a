// Copyright 2026 The HybridTree Authors.
// Per-data-page 8-bit quantized sidecars for the filter-then-refine scan
// path. Each sidecar stores, for every point on a data page, one uint8 code
// per dimension relative to the page's live bounding region (min/max over
// the page's points per dimension), laid out block-transposed for the
// fused mask kernels (kernels.h ctm), grid and codes together in one
// 64-byte-aligned allocation per page. A scan first asks those kernels
// which points may be within its bound (geometry/quantize.h) and refines
// only the survivors with exact distances — results stay byte-identical to
// the unfiltered path. A page holding a NaN or infinite coordinate gets no
// sidecar and is always scanned exactly.
//
// Sidecars are derived data, rebuilt from page contents on demand: they are
// built lazily on the first scan of a page (not at write time, so
// ingest pays nothing and trees opened from disk are covered) and
// invalidated whenever the page is rewritten or freed. Searches consult a
// page's sidecar before they pin the page and skip the fetch when no row
// can be in the answer, so a sidecar must never outlive the exact rows it
// was built from.
//
// The store is an OwnedPageTable (storage/page_table.h): a lookup is a
// lock-free table load, and the first builder of a page publishes its
// sidecar with a CAS (a builder that loses the race deletes its copy).
// A returned pointer stays valid until the page's sidecar is invalidated
// or cleared, which the tree does only under its exclusive role — after
// every reader is done.

#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "geometry/kernels/kernels.h"
#include "geometry/quantize.h"
#include "storage/page.h"
#include "storage/page_table.h"

namespace ht {

/// Immutable quantized image of one data page's point block: the grid and
/// the codes in the quant::PageCodesView layout, in ONE 64-byte-aligned
/// heap block. The object is the block's header (count, dim, blocks);
/// grid_lo and grid_hi (dim floats each) follow it, and the codes
/// (blocks * dim * kernels::kTBlock bytes) start at the next 64-byte
/// boundary. A sidecar test thus reads one allocation, not an object and
/// three more, and a sidecar's memory is that one block's size. Build
/// allocates it; the class-specific operator delete frees it, so a plain
/// `delete` (OwnedPageTable, std::unique_ptr) releases a sidecar.
class QuantizedPage {
 public:
  /// Builds the sidecar of `count` points laid out at `block` with
  /// `stride_floats` floats between consecutive points (DataPageScan
  /// layout: dim coordinates first, trailing slack ignored). Returns
  /// nullptr when count == 0 or some coordinate is NaN or infinite.
  static std::unique_ptr<const QuantizedPage> Build(const float* block,
                                                    size_t stride_floats,
                                                    size_t count,
                                                    uint32_t dim);

  /// Frees the block Build allocated (the header is trivially destroyed).
  static void operator delete(void* p) {
    ::operator delete(p, std::align_val_t{Page::kAlignment});
  }

  QuantizedPage(const QuantizedPage&) = delete;
  QuantizedPage& operator=(const QuantizedPage&) = delete;

  quant::PageCodesView view() const {
    const float* grid_lo = reinterpret_cast<const float*>(this + 1);
    return quant::PageCodesView{
        count_,          dim_, grid_lo, grid_lo + dim_,
        reinterpret_cast<const uint8_t*>(this) + CodesOffset(dim_), blocks_};
  }

  /// True when this sidecar is exactly what (re)building from the given
  /// block would produce — grid and every code byte, padding lanes
  /// included, compared bytewise. Used by the validator to detect stale
  /// sidecars.
  bool Matches(const float* block, size_t stride_floats, size_t count,
               uint32_t dim) const;

 private:
  QuantizedPage(size_t count, uint32_t dim);

  /// Byte offset of the codes from the start of the block: past the header
  /// and the two grid arrays, rounded up to the alignment.
  static size_t CodesOffset(uint32_t dim) {
    const size_t grid_end = sizeof(QuantizedPage) + 2 * sizeof(float) * dim;
    return (grid_end + Page::kAlignment - 1) / Page::kAlignment *
           Page::kAlignment;
  }

  size_t count_;
  uint32_t dim_;
  size_t blocks_;  // ceil(count_ / kernels::kTBlock)
};

/// Cache of sidecars keyed by data-page id (lifetime and concurrency in
/// the file comment).
class QuantStore {
 public:
  /// Returns the sidecar for `id`, building it and publishing it on first
  /// use. Returns nullptr when QuantizedPage::Build does (no rows, or a
  /// non-finite coordinate). Safe for concurrent readers: a racing double
  /// build keeps the first published copy.
  const QuantizedPage* GetOrBuild(PageId id, const float* block,
                                  size_t stride_floats, size_t count,
                                  uint32_t dim) const;

  /// Returns the cached sidecar for `id`, or nullptr (never builds).
  const QuantizedPage* Lookup(PageId id) const { return cache_.Get(id); }

  /// Drops the sidecar for `id` (page rewritten or freed). No-op if absent.
  /// Requires that no reader still uses it.
  void Invalidate(PageId id) { cache_.Erase(id); }

  /// Drops every sidecar, under the same requirement.
  void Clear() { cache_.Clear(); }

  size_t CachedPages() const { return cache_.Count(); }

  /// Snapshot of all cached page ids (validator: every cached sidecar must
  /// correspond to a live data page with matching contents).
  std::vector<PageId> Snapshot() const;

 private:
  /// Filled by const searches, hence mutable.
  mutable OwnedPageTable<const QuantizedPage> cache_;
};

}  // namespace ht

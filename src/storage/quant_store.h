// Copyright 2026 The HybridTree Authors.
// Per-data-page 8-bit quantized sidecars for the filter-then-refine scan
// path. Each sidecar stores, for every point on a data page, one uint8 code
// per dimension relative to the page's live bounding region (min/max over
// the page's points per dimension), laid out block-transposed for the
// fused mask kernels (kernels.h ctm_*). A scan first asks those kernels
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
#include <vector>

#include "geometry/kernels/kernels.h"
#include "geometry/quantize.h"
#include "storage/page.h"
#include "storage/page_table.h"

namespace ht {

/// Immutable quantized image of one data page's point block: the grid and
/// the codes in the quant::PageCodesView layout, in a 64-byte-aligned
/// buffer of blocks * dim * kernels::kTBlock bytes.
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

  QuantizedPage(const QuantizedPage&) = delete;
  QuantizedPage& operator=(const QuantizedPage&) = delete;

  quant::PageCodesView view() const {
    return quant::PageCodesView{count_,          dim_,
                                grid_lo_.data(), grid_hi_.data(),
                                tcodes_.get(),   blocks_};
  }

  /// True when this sidecar is exactly what (re)building from the given
  /// block would produce — grid and every code byte, padding lanes
  /// included. Used by the validator to detect stale sidecars.
  bool Matches(const float* block, size_t stride_floats, size_t count,
               uint32_t dim) const;

 private:
  struct AlignedFree {
    void operator()(void* p) const {
      ::operator delete(p, std::align_val_t{Page::kAlignment});
    }
  };

  QuantizedPage(size_t count, uint32_t dim, std::vector<float> grid_lo,
                std::vector<float> grid_hi);

  size_t count_;
  uint32_t dim_;
  size_t blocks_;  // ceil(count_ / kernels::kTBlock)
  std::vector<float> grid_lo_;
  std::vector<float> grid_hi_;
  std::unique_ptr<uint8_t, AlignedFree> tcodes_;
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

// Copyright 2026 The HybridTree Authors.

#include "storage/quant_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>

#include "common/macros.h"

namespace ht {

std::unique_ptr<const QuantizedPage> QuantizedPage::Build(
    const float* block, size_t stride_floats, size_t count, uint32_t dim) {
  if (count == 0) return nullptr;
  HT_CHECK(dim > 0);
  constexpr size_t kLanes = kernels::kTBlock;
  const size_t blocks = (count + kLanes - 1) / kLanes;
  void* mem = ::operator new(CodesOffset(dim) + blocks * dim * kLanes,
                             std::align_val_t{Page::kAlignment});
  std::unique_ptr<QuantizedPage> qp(::new (mem) QuantizedPage(count, dim));
  // The layout view() reads: header, grid_lo, grid_hi, aligned codes.
  float* grid_lo = reinterpret_cast<float*>(qp.get() + 1);
  float* grid_hi = grid_lo + dim;
  uint8_t* tcodes = static_cast<uint8_t*>(mem) + CodesOffset(dim);
  // Grid = the page's live bounding region: min/max per dimension over the
  // resident points. Tightest possible uniform grid for this page. A NaN or
  // infinite coordinate leaves no finite grid (every gap on its dimension
  // would be NaN, clearing every row's survivor bit), so such a page gets
  // no sidecar (the block is freed) and always takes the exact path.
  std::copy(block, block + dim, grid_lo);
  std::copy(block, block + dim, grid_hi);
  for (size_t i = 0; i < count; ++i) {
    const float* row = block + i * stride_floats;
    for (uint32_t d = 0; d < dim; ++d) {
      if (!std::isfinite(row[d])) return nullptr;
      if (row[d] < grid_lo[d]) grid_lo[d] = row[d];
      if (row[d] > grid_hi[d]) grid_hi[d] = row[d];
    }
  }
  // One byte per dimension: the containing cell (QuantizeLo). The filter
  // pads the cell interval on both sides, so floor is the right rounding
  // for both boundaries here. Lanes past `count` repeat the last row.
  for (size_t b = 0; b < blocks; ++b) {
    uint8_t* tcb = tcodes + b * dim * kLanes;
    for (size_t lane = 0; lane < kLanes; ++lane) {
      const float* row =
          block + std::min(b * kLanes + lane, count - 1) * stride_floats;
      for (uint32_t d = 0; d < dim; ++d) {
        tcb[d * kLanes + lane] = static_cast<uint8_t>(quant::QuantizeLo(
            row[d], grid_lo[d], grid_hi[d], quant::kSidecarBits));
      }
    }
  }
  return qp;
}

QuantizedPage::QuantizedPage(size_t count, uint32_t dim)
    : count_(count),
      dim_(dim),
      blocks_((count + kernels::kTBlock - 1) / kernels::kTBlock) {}

bool QuantizedPage::Matches(const float* block, size_t stride_floats,
                            size_t count, uint32_t dim) const {
  if (count != count_ || dim != dim_) return false;
  const auto fresh = Build(block, stride_floats, count, dim);
  if (fresh == nullptr) return false;
  // The grid arrays and the codes, not the alignment gap between them.
  const quant::PageCodesView a = view();
  const quant::PageCodesView b = fresh->view();
  return std::memcmp(a.grid_lo, b.grid_lo, 2 * sizeof(float) * dim) == 0 &&
         std::memcmp(a.tcodes, b.tcodes, blocks_ * dim * kernels::kTBlock) ==
             0;
}

const QuantizedPage* QuantStore::GetOrBuild(PageId id, const float* block,
                                            size_t stride_floats, size_t count,
                                            uint32_t dim) const {
  if (const QuantizedPage* qp = cache_.Get(id)) return qp;
  // Build with no lock held: encoding is the expensive part, and the input
  // block belongs to a pinned page, so it cannot move underneath us.
  auto fresh = QuantizedPage::Build(block, stride_floats, count, dim);
  if (fresh == nullptr) return nullptr;
  return cache_.Publish(id, std::move(fresh));
}

std::vector<PageId> QuantStore::Snapshot() const {
  std::vector<PageId> ids;
  cache_.ForEach(
      [&ids](PageId id, const QuantizedPage*) { ids.push_back(id); });
  return ids;
}

}  // namespace ht

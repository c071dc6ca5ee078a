// Copyright 2026 The HybridTree Authors.

#include "storage/quant_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/macros.h"

namespace ht {

std::unique_ptr<const QuantizedPage> QuantizedPage::Build(
    const float* block, size_t stride_floats, size_t count, uint32_t dim) {
  if (count == 0) return nullptr;
  HT_CHECK(dim > 0);
  // Grid = the page's live bounding region: min/max per dimension over the
  // resident points. Tightest possible uniform grid for this page. A NaN or
  // infinite coordinate leaves no finite grid (every gap on its dimension
  // would be NaN, clearing every row's survivor bit), so such a page gets
  // no sidecar and always takes the exact path.
  std::vector<float> grid_lo(block, block + dim);
  std::vector<float> grid_hi(block, block + dim);
  for (size_t i = 0; i < count; ++i) {
    const float* row = block + i * stride_floats;
    for (uint32_t d = 0; d < dim; ++d) {
      if (!std::isfinite(row[d])) return nullptr;
      if (row[d] < grid_lo[d]) grid_lo[d] = row[d];
      if (row[d] > grid_hi[d]) grid_hi[d] = row[d];
    }
  }
  std::unique_ptr<QuantizedPage> qp(
      new QuantizedPage(count, dim, std::move(grid_lo), std::move(grid_hi)));
  // One byte per dimension: the containing cell (QuantizeLo). The filter
  // pads the cell interval on both sides, so floor is the right rounding
  // for both boundaries here. Lanes past `count` repeat the last row.
  constexpr size_t kLanes = kernels::kTBlock;
  for (size_t b = 0; b < qp->blocks_; ++b) {
    uint8_t* tcb = qp->tcodes_.get() + b * dim * kLanes;
    for (size_t lane = 0; lane < kLanes; ++lane) {
      const float* row =
          block + std::min(b * kLanes + lane, count - 1) * stride_floats;
      for (uint32_t d = 0; d < dim; ++d) {
        tcb[d * kLanes + lane] = static_cast<uint8_t>(
            quant::QuantizeLo(row[d], qp->grid_lo_[d], qp->grid_hi_[d],
                              quant::kSidecarBits));
      }
    }
  }
  return qp;
}

QuantizedPage::QuantizedPage(size_t count, uint32_t dim,
                             std::vector<float> grid_lo,
                             std::vector<float> grid_hi)
    : count_(count),
      dim_(dim),
      blocks_((count + kernels::kTBlock - 1) / kernels::kTBlock),
      grid_lo_(std::move(grid_lo)),
      grid_hi_(std::move(grid_hi)),
      tcodes_(static_cast<uint8_t*>(
          ::operator new(blocks_ * dim * kernels::kTBlock,
                         std::align_val_t{Page::kAlignment}))) {}

bool QuantizedPage::Matches(const float* block, size_t stride_floats,
                            size_t count, uint32_t dim) const {
  if (count != count_ || dim != dim_) return false;
  const auto fresh = Build(block, stride_floats, count, dim);
  return fresh != nullptr && fresh->grid_lo_ == grid_lo_ &&
         fresh->grid_hi_ == grid_hi_ &&
         std::memcmp(fresh->tcodes_.get(), tcodes_.get(),
                     blocks_ * dim * kernels::kTBlock) == 0;
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

// Copyright 2026 The HybridTree Authors.

#include "storage/quant_store.h"

#include <cstring>

#include "common/macros.h"

namespace ht {

QuantizedPage::QuantizedPage(const float* block, size_t stride_floats,
                             size_t count, uint32_t dim)
    : dim_(dim),
      count_(count),
      stride_(quant::PaddedDim(dim)),
      grid_lo_(dim),
      grid_hi_(dim) {
  HT_CHECK(count > 0 && dim > 0);
  // Grid = the page's live bounding region: min/max per dimension over the
  // resident points. Tightest possible uniform grid for this page.
  for (uint32_t d = 0; d < dim; ++d) {
    grid_lo_[d] = block[d];
    grid_hi_[d] = block[d];
  }
  for (size_t i = 1; i < count; ++i) {
    const float* row = block + i * stride_floats;
    for (uint32_t d = 0; d < dim; ++d) {
      if (row[d] < grid_lo_[d]) grid_lo_[d] = row[d];
      if (row[d] > grid_hi_[d]) grid_hi_[d] = row[d];
    }
  }
  const size_t bytes = count * stride_;
  codes_.reset(static_cast<uint8_t*>(
      ::operator new(bytes, std::align_val_t{Page::kAlignment})));
  std::memset(codes_.get(), 0, bytes);
  for (size_t i = 0; i < count; ++i) {
    quant::EncodeSidecarRow(block + i * stride_floats, grid_lo_.data(),
                            grid_hi_.data(), dim, codes_.get() + i * stride_);
  }
  // Transposed mirrors: kTBlock rows per block, dimension-major, so
  // element d of a block's rows is one contiguous group — 32-byte-aligned
  // floats for the batch kernels, 8 bytes of codes for the ct_* kernels.
  full_blocks_ = count / kernels::kTBlock;
  if (full_blocks_ > 0) {
    const size_t tf_floats = full_blocks_ * dim * kernels::kTBlock;
    tf_.reset(static_cast<float*>(::operator new(
        tf_floats * sizeof(float), std::align_val_t{Page::kAlignment})));
    tc_.reset(static_cast<uint8_t*>(::operator new(
        tf_floats, std::align_val_t{Page::kAlignment})));
    for (size_t b = 0; b < full_blocks_; ++b) {
      float* tb = tf_.get() + b * dim * kernels::kTBlock;
      uint8_t* tcb = tc_.get() + b * dim * kernels::kTBlock;
      for (size_t lane = 0; lane < kernels::kTBlock; ++lane) {
        const size_t i = b * kernels::kTBlock + lane;
        const float* row = block + i * stride_floats;
        const uint8_t* crow = codes_.get() + i * stride_;
        for (uint32_t d = 0; d < dim; ++d) {
          tb[d * kernels::kTBlock + lane] = row[d];
          tcb[d * kernels::kTBlock + lane] = crow[d];
        }
      }
    }
  }
}

bool QuantizedPage::Matches(const float* block, size_t stride_floats,
                            size_t count, uint32_t dim) const {
  if (count != count_ || dim != dim_) return false;
  QuantizedPage fresh(block, stride_floats, count, dim);
  const size_t tf_bytes =
      full_blocks_ * dim * kernels::kTBlock * sizeof(float);
  // tc_ needs no separate check: it is a deterministic re-layout of the
  // codes bytes compared below.
  return fresh.grid_lo_ == grid_lo_ && fresh.grid_hi_ == grid_hi_ &&
         std::memcmp(fresh.codes_.get(), codes_.get(), count * stride_) == 0 &&
         (tf_bytes == 0 ||
          std::memcmp(fresh.tf_.get(), tf_.get(), tf_bytes) == 0);
}

const QuantizedPage* QuantStore::GetOrBuild(PageId id, const float* block,
                                            size_t stride_floats, size_t count,
                                            uint32_t dim) const {
  if (count == 0) return nullptr;
  if (const QuantizedPage* qp = cache_.Get(id)) return qp;
  // Build with no lock held: encoding is the expensive part, and the input
  // block belongs to a pinned page, so it cannot move underneath us.
  return cache_.Publish(id, std::make_unique<const QuantizedPage>(
                                block, stride_floats, count, dim));
}

std::vector<PageId> QuantStore::Snapshot() const {
  std::vector<PageId> ids;
  cache_.ForEach(
      [&ids](PageId id, const QuantizedPage*) { ids.push_back(id); });
  return ids;
}

}  // namespace ht

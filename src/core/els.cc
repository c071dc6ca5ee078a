#include "core/els.h"

#include <algorithm>
#include <cmath>

#include "geometry/quantize.h"

namespace ht {

namespace els_detail {

void PutBits(std::vector<uint8_t>& buf, size_t bit_off, uint32_t value,
             uint32_t nbits) {
  for (uint32_t i = 0; i < nbits; ++i) {
    const size_t bit = bit_off + i;
    const size_t byte = bit / 8;
    const uint32_t shift = bit % 8;
    HT_DCHECK(byte < buf.size());
    if ((value >> i) & 1u) {
      buf[byte] = static_cast<uint8_t>(buf[byte] | (1u << shift));
    } else {
      buf[byte] = static_cast<uint8_t>(buf[byte] & ~(1u << shift));
    }
  }
}

uint32_t GetBits(const std::vector<uint8_t>& buf, size_t bit_off,
                 uint32_t nbits) {
  // Word-based extraction: a <=16-bit field spans at most 3 bytes; gather
  // up to 4 bytes around the offset and shift/mask once. This sits on the
  // search hot path (ELS decode per child visited).
  const size_t byte = bit_off / 8;
  const uint32_t shift = static_cast<uint32_t>(bit_off % 8);
  uint32_t window = 0;
  const size_t avail = buf.size() - byte;
  HT_DCHECK(byte < buf.size());
  switch (avail < 4 ? avail : 4) {
    case 4:
      window |= static_cast<uint32_t>(buf[byte + 3]) << 24;
      [[fallthrough]];
    case 3:
      window |= static_cast<uint32_t>(buf[byte + 2]) << 16;
      [[fallthrough]];
    case 2:
      window |= static_cast<uint32_t>(buf[byte + 1]) << 8;
      [[fallthrough]];
    default:
      window |= static_cast<uint32_t>(buf[byte]);
  }
  return (window >> shift) &
         (nbits >= 32 ? 0xffffffffu : ((1u << nbits) - 1u));
}

}  // namespace els_detail

ElsCode ElsCodec::Encode(const Box& live, const Box& ref) const {
  if (bits_ == 0) return {};
  HT_DCHECK(live.dim() == dim_ && ref.dim() == dim_);
  ElsCode code(CodeBytes(), 0);
  size_t off = 0;
  for (uint32_t d = 0; d < dim_; ++d) {
    // Clip the live box to the reference region first: points outside the
    // kd region belong to a different child (overlap), so the code only
    // needs to cover the part inside `ref`.
    const float l = std::max(live.lo(d), ref.lo(d));
    const float h = std::min(live.hi(d), ref.hi(d));
    els_detail::PutBits(
        code, off, quant::QuantizeLo(l, ref.lo(d), ref.hi(d), bits_), bits_);
    off += bits_;
    // QuantizeHi ranges over [1, 2^bits]; store cell-1 so it fits in
    // `bits` bits. Decode adds the 1 back.
    els_detail::PutBits(
        code, off, quant::QuantizeHi(h, ref.lo(d), ref.hi(d), bits_) - 1,
        bits_);
    off += bits_;
  }
  return code;
}

Box ElsCodec::Decode(const ElsCode& code, const Box& ref) const {
  if (bits_ == 0 || code.empty()) return ref;
  HT_DCHECK(code.size() == CodeBytes());
  const uint32_t cells = 1u << bits_;
  std::vector<float> lo(dim_), hi(dim_);
  size_t off = 0;
  for (uint32_t d = 0; d < dim_; ++d) {
    const double w =
        (static_cast<double>(ref.hi(d)) - ref.lo(d)) / cells;
    const uint32_t cl = els_detail::GetBits(code, off, bits_);
    off += bits_;
    const uint32_t ch = els_detail::GetBits(code, off, bits_) + 1;
    off += bits_;
    lo[d] = static_cast<float>(ref.lo(d) + cl * w);
    hi[d] = static_cast<float>(ref.lo(d) + ch * w);
    // Guard against float rounding pushing boundaries outside ref.
    lo[d] = std::max(lo[d], ref.lo(d));
    hi[d] = std::min(hi[d], ref.hi(d));
    if (hi[d] < lo[d]) hi[d] = lo[d];
  }
  return Box::FromBounds(std::move(lo), std::move(hi));
}

ElsCode ElsCodec::Reencode(const ElsCode& code, const Box& old_ref,
                           const Box& new_ref) const {
  if (bits_ == 0) return {};
  return Encode(Decode(code, old_ref), new_ref);
}

ElsCode ElsCodec::FullCode() const {
  if (bits_ == 0) return {};
  ElsCode code(CodeBytes(), 0);
  const uint32_t max_cell = (1u << bits_) - 1;  // stored hi = cell - 1
  size_t off = 0;
  for (uint32_t d = 0; d < dim_; ++d) {
    els_detail::PutBits(code, off, 0, bits_);
    off += bits_;
    els_detail::PutBits(code, off, max_cell, bits_);
    off += bits_;
  }
  return code;
}

ElsCode ElsCodec::ExtendToInclude(const ElsCode& code, const Box& ref,
                                  std::span<const float> p) const {
  if (bits_ == 0) return {};
  Box live = Decode(code, ref);
  live.ExtendToInclude(p);
  return Encode(live, ref);
}

}  // namespace ht

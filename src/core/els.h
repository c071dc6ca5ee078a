// Copyright 2026 The HybridTree Authors.
// Encoded Live Space (ELS), §3.4 of the paper.
//
// SP-based structures index dead space: regions of the partitioning that
// contain no data. The hybrid tree stores, per child of an index node, a
// conservative approximation of the child's live bounding region encoded on
// a 2^bits grid relative to the child's kd region. The code costs
// 2 * dim * bits bits per child instead of 2 * dim * 32 for exact BRs, so
// fanout stays (nearly) independent of dimensionality while most dead space
// is eliminated from the search.

#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "geometry/box.h"

namespace ht {

/// Packed ELS code bytes for one child. Empty when bits == 0 (ELS off).
using ElsCode = std::vector<uint8_t>;

/// Encoder/decoder for ELS codes at a fixed (dim, bits) configuration.
///
/// Conservativeness contract: Decode(Encode(live, ref), ref) always
/// contains `live` (clipped to `ref`), so pruning with a decoded box never
/// drops a true result. Lower boundaries round down, upper boundaries round
/// up to the enclosing grid line.
class ElsCodec {
 public:
  ElsCodec(uint32_t dim, uint32_t bits) : dim_(dim), bits_(bits) {
    HT_CHECK(bits <= 16);
  }

  uint32_t dim() const { return dim_; }
  uint32_t bits() const { return bits_; }

  /// Bytes per code: 2 boundaries * dim * bits, rounded up to whole bytes.
  size_t CodeBytes() const { return (2 * dim_ * bits_ + 7) / 8; }

  /// Encodes the live box `live` relative to the reference region `ref`.
  ElsCode Encode(const Box& live, const Box& ref) const;

  /// Decodes a code produced by Encode back to a (conservative) box.
  /// An empty code (ELS off) decodes to `ref` itself.
  Box Decode(const ElsCode& code, const Box& ref) const;

  /// Re-encodes `code` (valid relative to `old_ref`) relative to `new_ref`.
  /// Used when index-node restructuring changes a child's kd region. The
  /// result is conservative with respect to the decoded old box.
  ElsCode Reencode(const ElsCode& code, const Box& old_ref,
                   const Box& new_ref) const;

  /// Returns a copy of `code` grown (if needed) to cover point `p`.
  ElsCode ExtendToInclude(const ElsCode& code, const Box& ref,
                          std::span<const float> p) const;

  /// The code that decodes to the full reference region (lo cell 0, hi cell
  /// 2^bits) — independent of the region itself.
  ElsCode FullCode() const;

 private:
  uint32_t dim_;
  uint32_t bits_;
};

/// Bit-packing helpers (exposed for tests).
namespace els_detail {
void PutBits(std::vector<uint8_t>& buf, size_t bit_off, uint32_t value,
             uint32_t nbits);
uint32_t GetBits(const std::vector<uint8_t>& buf, size_t bit_off,
                 uint32_t nbits);
}  // namespace els_detail

}  // namespace ht

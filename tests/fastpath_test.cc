// Tests for the search-hot-path primitives: DataPageScan must agree with
// full deserialization, and els_detail::GetBits with a bit-by-bit read.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/els.h"
#include "core/node.h"

namespace ht {
namespace {

TEST(DataPageScanTest, AgreesWithDeserialize) {
  Rng rng(1901);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t dim = 1 + static_cast<uint32_t>(rng.NextBelow(64));
    const size_t page_size = 4096;
    DataNode node;
    const size_t n = rng.NextBelow(DataNode::Capacity(dim, page_size) + 1);
    for (size_t i = 0; i < n; ++i) {
      DataEntry e;
      e.id = rng.NextU64();
      for (uint32_t d = 0; d < dim; ++d) {
        e.vec.push_back(static_cast<float>(rng.NextDouble()));
      }
      node.entries.push_back(std::move(e));
    }
    std::vector<uint8_t> page(page_size, 0xaa);
    node.Serialize(page.data(), page.size(), dim);

    DataPageScan scan(page.data(), page.size(), dim);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan.count(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scan.id(i), node.entries[i].id) << trial << ":" << i;
      auto v = scan.vec(i);
      ASSERT_EQ(v.size(), dim);
      for (uint32_t d = 0; d < dim; ++d) {
        ASSERT_EQ(v[d], node.entries[i].vec[d]) << trial << ":" << i;
      }
    }
  }
}

TEST(GetBitsTest, WordExtractionMatchesBitLoop) {
  Rng rng(1907);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> buf(16);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
    const uint32_t nbits = 1 + static_cast<uint32_t>(rng.NextBelow(16));
    const size_t off = rng.NextBelow(buf.size() * 8 - nbits);
    // Reference: bit-by-bit extraction.
    uint32_t want = 0;
    for (uint32_t i = 0; i < nbits; ++i) {
      const size_t bit = off + i;
      if ((buf[bit / 8] >> (bit % 8)) & 1u) want |= (1u << i);
    }
    ASSERT_EQ(els_detail::GetBits(buf, off, nbits), want)
        << "off=" << off << " nbits=" << nbits;
  }
}

TEST(GetBitsTest, ReadNearBufferEnd) {
  std::vector<uint8_t> buf = {0xff, 0xff};
  // A 9-bit read starting at bit 7 touches the final byte only partially.
  EXPECT_EQ(els_detail::GetBits(buf, 7, 9), 0x1ffu);
}

}  // namespace
}  // namespace ht

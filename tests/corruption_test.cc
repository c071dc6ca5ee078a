// Failure injection: a disk-based index must turn torn/garbled pages into
// Corruption errors, never crashes or silent wrong answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "geometry/kernels/kernels.h"
#include "storage/quant_store.h"

namespace ht {
namespace {

struct Fixture {
  MemPagedFile file{1024};
  std::unique_ptr<HybridTree> tree;
  Dataset data;

  Fixture() {
    Rng rng(1801);
    data = GenUniform(2000, 4, rng);
    HybridTreeOptions o;
    o.dim = 4;
    o.page_size = 1024;
    tree = HybridTree::Create(o, &file).ValueOrDie();
    for (size_t i = 0; i < data.size(); ++i) {
      HT_CHECK_OK(tree->Insert(data.Row(i), i));
    }
    HT_CHECK_OK(tree->Flush());
  }

  /// Overwrites raw bytes of page `id` directly in the backing file and
  /// invalidates cached state by reopening the tree.
  void Corrupt(PageId id, size_t offset, std::initializer_list<uint8_t> bytes) {
    Page p(1024);
    HT_CHECK_OK(file.Read(id, &p));
    size_t o = offset;
    for (uint8_t b : bytes) p.data()[o++] = b;
    HT_CHECK_OK(file.Write(id, p));
  }
};

TEST(CorruptionTest, GarbledRootKindByte) {
  Fixture f;
  const PageId root = f.tree->root_page();
  HT_CHECK_OK(f.tree->Flush());
  f.Corrupt(root, 0, {0x77});
  // Reopen so no cached parse survives.
  auto tree = HybridTree::Open(&f.file);
  // Open itself may succeed (meta is fine); the next search must fail
  // cleanly.
  if (tree.ok()) {
    auto r = tree.ValueOrDie()->SearchBox(Box::UnitCube(4));
    EXPECT_FALSE(r.ok());
  }
}

TEST(CorruptionTest, GarbledMetaPage) {
  Fixture f;
  f.Corrupt(0, 0, {0xde, 0xad, 0xbe, 0xef, 0x42});
  auto tree = HybridTree::Open(&f.file);
  EXPECT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsCorruption());
}

// Meta page field offsets (HybridTree::WriteMeta): kind u8, magic u32,
// version u32, then the fields below, little-endian and unpadded.
constexpr size_t kMetaDimOffset = 9;
constexpr size_t kMetaSplitPolicyOffset = 33;
constexpr size_t kMetaElsModeOffset = 34;
constexpr size_t kMetaElsBitsOffset = 35;
constexpr size_t kMetaQuerySizeModelOffset = 36;

/// Open must report a meta value Create would refuse as Corruption, never
/// abort on it.
void ExpectOpenRejectsMeta(size_t offset,
                           std::initializer_list<uint8_t> bytes) {
  Fixture f;
  f.Corrupt(0, offset, bytes);
  auto tree = HybridTree::Open(&f.file);
  ASSERT_FALSE(tree.ok());
  EXPECT_TRUE(tree.status().IsCorruption()) << tree.status().ToString();
}

TEST(CorruptionTest, MetaZeroDimensionRejected) {
  ExpectOpenRejectsMeta(kMetaDimOffset, {0, 0, 0, 0});
}

TEST(CorruptionTest, MetaDimensionTooLargeForPageRejected) {
  // 64 dims at the 1024-byte page size: a data page holds 3 entries.
  ExpectOpenRejectsMeta(kMetaDimOffset, {64, 0, 0, 0});
}

TEST(CorruptionTest, MetaElsBitsAbove16Rejected) {
  ExpectOpenRejectsMeta(kMetaElsBitsOffset, {40});
}

TEST(CorruptionTest, MetaUnknownSplitPolicyRejected) {
  ExpectOpenRejectsMeta(kMetaSplitPolicyOffset, {7});
}

TEST(CorruptionTest, MetaUnknownElsModeRejected) {
  ExpectOpenRejectsMeta(kMetaElsModeOffset, {9});
}

TEST(CorruptionTest, MetaUnknownQuerySizeModelRejected) {
  ExpectOpenRejectsMeta(kMetaQuerySizeModelOffset, {5});
}

// The meta page's root id and height, after dim and page size.
constexpr size_t kMetaRootOffset = 17;
constexpr size_t kMetaHeightOffset = 21;

/// Overwrites the little-endian u32 at `offset` of page `id`.
void PatchU32(PagedFile& file, PageId id, size_t offset, uint32_t value) {
  Page p(file.page_size());
  HT_CHECK_OK(file.Read(id, &p));
  for (size_t b = 0; b < 4; ++b) {
    p.data()[offset + b] = static_cast<uint8_t>(value >> (8 * b));
  }
  HT_CHECK_OK(file.Write(id, p));
}

// Delete resets the root to an empty data page when it eliminates the
// root index node's only child. No split, bulk load or Delete leaves a
// one-child root index node behind, but a file can hold one and Open
// accepts it, so the test writes one: the root data page of a flushed
// tree gets a level-1 parent whose kd tree is a single leaf.
TEST(CorruptionTest, DeleteUnderAOneChildRootResetsTheRoot) {
  MemPagedFile file(1024);
  HybridTreeOptions o;
  o.dim = 4;
  o.page_size = 1024;
  // The data-page fill floor: one row fewer and the page is eliminated.
  const size_t floor = static_cast<size_t>(
      o.data_node_min_util *
      static_cast<double>(DataNode::Capacity(o.dim, o.page_size)));
  ASSERT_GE(floor, 2u);
  Rng rng(1803);
  const Dataset data = GenUniform(floor, o.dim, rng);
  PageId data_page;
  {
    auto tree = HybridTree::Create(o, &file).ValueOrDie();
    for (size_t i = 0; i < data.size(); ++i) {
      HT_CHECK_OK(tree->Insert(data.Row(i), i));
    }
    HT_CHECK_OK(tree->Flush());
    ASSERT_EQ(tree->height(), 0u);
    data_page = tree->root_page();
  }
  const PageId index_page = file.Allocate().ValueOrDie();
  IndexNode index;
  index.level = 1;
  index.root = KdNode::MakeLeaf(data_page);
  Page p(file.page_size());
  index.Serialize(p.data(), p.size(), /*els_in_page=*/false, 0);
  HT_CHECK_OK(file.Write(index_page, p));
  PatchU32(file, 0, kMetaRootOffset, index_page);
  PatchU32(file, 0, kMetaHeightOffset, 1);

  // Open rebuilds the in-memory ELS codes, the new root's included.
  auto tree = HybridTree::Open(&file).ValueOrDie();
  ASSERT_EQ(tree->root_page(), index_page);
  ASSERT_EQ(tree->height(), 1u);
  ASSERT_TRUE(tree->CheckInvariants().ok());

  // The child falls below the floor and is eliminated; the root page
  // becomes an empty data page and the other rows are reinserted into it.
  ASSERT_TRUE(tree->Delete(data.Row(0), 0).ok());
  EXPECT_EQ(tree->size(), floor - 1);
  EXPECT_EQ(tree->height(), 0u);
  EXPECT_EQ(tree->root_page(), index_page);
  const Status valid = tree->CheckInvariants();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  std::vector<uint64_t> ids =
      tree->SearchBox(Box::UnitCube(o.dim)).ValueOrDie();
  std::sort(ids.begin(), ids.end());
  std::vector<uint64_t> survivors(floor - 1);
  std::iota(survivors.begin(), survivors.end(), uint64_t{1});
  EXPECT_EQ(ids, survivors);
}

TEST(CorruptionTest, KdChildIndexOutOfRange) {
  // Hand-craft an index page whose kd record points past the record count.
  std::vector<uint8_t> page(512, 0);
  page[0] = static_cast<uint8_t>(NodeKind::kIndex);
  page[1] = 1;   // level
  page[2] = 1;   // kd count = 1
  page[3] = 0;
  page[4] = 0;   // tag = internal
  page[5] = 0;   // dim u16
  page[6] = 0;
  // lsp/rsp floats (zeros fine), then left/right indices out of range.
  page[15] = 9;  // left index low byte
  auto r = IndexNode::Deserialize(page.data(), page.size(), false, 0);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(CorruptionTest, PreorderCycleRejected) {
  // An internal record referencing an EARLIER index would create a cycle;
  // the decoder must refuse.
  std::vector<uint8_t> page(512, 0);
  page[0] = static_cast<uint8_t>(NodeKind::kIndex);
  page[1] = 1;
  page[2] = 2;  // two records
  page[3] = 0;
  size_t off = 4;
  page[off] = 0;  // internal
  // dim=0, lsp=rsp=0 -> bytes already zero; indices: left=0 (self!),right=1
  page[off + 11] = 0;
  page[off + 13] = 1;
  off += 15;
  page[off] = 1;  // leaf, child 7
  page[off + 1] = 7;
  auto r = IndexNode::Deserialize(page.data(), page.size(), false, 0);
  EXPECT_FALSE(r.ok());
}

TEST(CorruptionTest, AliasedKdChildrenRejected) {
  // An internal record with left == right passes the stale-slot null
  // checks and then double-moves the child, leaving a half-linked node
  // whose traversal dereferences null (found by fuzz_node). Must be
  // rejected at decode time.
  std::vector<uint8_t> page(512, 0);
  page[0] = static_cast<uint8_t>(NodeKind::kIndex);
  page[1] = 1;  // level
  page[2] = 3;  // three records
  page[3] = 0;
  size_t off = 4;
  page[off] = 0;        // internal
  page[off + 11] = 1;   // left = 1
  page[off + 13] = 1;   // right = 1 (aliased!)
  off += 15;
  page[off] = 1;  // leaf, child 5
  page[off + 1] = 5;
  off += 5;
  page[off] = 1;  // leaf, child 6
  page[off + 1] = 6;
  auto r = IndexNode::Deserialize(page.data(), page.size(), false, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(CorruptionTest, DataPageScanRejectsWrongKind) {
  std::vector<uint8_t> page(256, 0);
  page[0] = static_cast<uint8_t>(NodeKind::kIndex);
  DataPageScan scan(page.data(), page.size(), 4);
  EXPECT_FALSE(scan.ok());
}

TEST(CorruptionTest, DataPageScanRejectsOversizedCount) {
  std::vector<uint8_t> page(256, 0);
  page[0] = static_cast<uint8_t>(NodeKind::kData);
  page[2] = 0xff;  // count 0xffff — cannot fit
  page[3] = 0xff;
  DataPageScan scan(page.data(), page.size(), 4);
  EXPECT_FALSE(scan.ok());
  EXPECT_EQ(scan.count(), 0u);
}

// --- seeded semantic corruptions ------------------------------------------
//
// Damage that deserializes FINE — every field parses, every range check in
// Deserialize passes — but breaks a structural promise. Only the deep
// validator (TreeValidator, reached through CheckInvariants) can see it.

struct SeededFixture {
  static constexpr size_t kPage = 1024;
  MemPagedFile file{kPage};
  std::unique_ptr<HybridTree> tree;
  Dataset data;
  size_t code_bytes = 0;

  SeededFixture() {
    Rng rng(1803);
    data = GenUniform(2000, 4, rng);
    HybridTreeOptions o;
    o.dim = 4;
    o.page_size = kPage;
    // In-page ELS: the codes live in the index pages themselves, so byte
    // corruption survives a reopen (kInMemory would recompute them).
    o.els_mode = ElsMode::kInPage;
    tree = HybridTree::Create(o, &file).ValueOrDie();
    code_bytes = (2 * o.dim * o.els_bits + 7) / 8;
    for (size_t i = 0; i < data.size(); ++i) {
      HT_CHECK_OK(tree->Insert(data.Row(i), i));
    }
    HT_CHECK_OK(tree->Flush());
  }

  /// Offsets of the kd records of a serialized index page, in preorder.
  /// Record layout: internal = tag u8, dim u16, lsp f32, rsp f32, left
  /// u16, right u16; leaf = tag u8, child u32, ELS code bytes.
  struct Record {
    size_t offset;
    bool leaf;
  };
  std::vector<Record> ScanRecords(const Page& p) {
    uint16_t count = 0;
    std::memcpy(&count, p.data() + 2, 2);
    std::vector<Record> recs;
    size_t off = 4;
    for (uint16_t i = 0; i < count; ++i) {
      const bool leaf = p.data()[off] == 1;
      recs.push_back({off, leaf});
      off += leaf ? (5 + code_bytes) : 15;
    }
    return recs;
  }

  Status ReopenAndValidate() {
    auto reopened = HybridTree::Open(&file);
    if (!reopened.ok()) return reopened.status();
    return reopened.ValueOrDie()->CheckInvariants();
  }
};

TEST(CorruptionTest, ValidatorDetectsFlippedSplitPositions) {
  SeededFixture f;
  Page p(SeededFixture::kPage);
  HT_CHECK_OK(f.file.Read(f.tree->root_page(), &p));
  auto recs = f.ScanRecords(p);
  ASSERT_FALSE(recs.empty());
  ASSERT_FALSE(recs[0].leaf) << "root kd record should be an internal split";
  // lsp/rsp pushed outside the node's region: a split can never partition
  // space it does not own.
  const float bad_lsp = -0.5f, bad_rsp = 1.5f;
  std::memcpy(p.data() + recs[0].offset + 3, &bad_lsp, 4);
  std::memcpy(p.data() + recs[0].offset + 7, &bad_rsp, 4);
  HT_CHECK_OK(f.file.Write(f.tree->root_page(), p));
  Status s = f.ReopenAndValidate();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("split positions"), std::string::npos)
      << s.ToString();
}

TEST(CorruptionTest, ValidatorDetectsTruncatedElsWords) {
  SeededFixture f;
  Page p(SeededFixture::kPage);
  HT_CHECK_OK(f.file.Read(f.tree->root_page(), &p));
  auto recs = f.ScanRecords(p);
  // Zero a leaf's ELS words: the code now decodes to a degenerate corner
  // box that cannot cover the child's data.
  bool patched = false;
  for (const auto& r : recs) {
    if (!r.leaf) continue;
    std::memset(p.data() + r.offset + 5, 0, f.code_bytes);
    patched = true;
    break;
  }
  ASSERT_TRUE(patched);
  HT_CHECK_OK(f.file.Write(f.tree->root_page(), p));
  Status s = f.ReopenAndValidate();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CorruptionTest, ValidatorDetectsChildPointingAtMetaPage) {
  SeededFixture f;
  Page p(SeededFixture::kPage);
  HT_CHECK_OK(f.file.Read(f.tree->root_page(), &p));
  auto recs = f.ScanRecords(p);
  bool patched = false;
  for (const auto& r : recs) {
    if (!r.leaf) continue;
    const uint32_t meta = 0;
    std::memcpy(p.data() + r.offset + 1, &meta, 4);
    patched = true;
    break;
  }
  ASSERT_TRUE(patched);
  HT_CHECK_OK(f.file.Write(f.tree->root_page(), p));
  Status s = f.ReopenAndValidate();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("meta page"), std::string::npos) << s.ToString();
}

TEST(CorruptionTest, ValidatorDetectsDuplicatedChildPage) {
  SeededFixture f;
  Page p(SeededFixture::kPage);
  HT_CHECK_OK(f.file.Read(f.tree->root_page(), &p));
  auto recs = f.ScanRecords(p);
  // Point two kd leaves at the same child: a shared subtree (or cycle)
  // that every per-page check is blind to.
  std::vector<size_t> leaves;
  for (const auto& r : recs) {
    if (r.leaf) leaves.push_back(r.offset);
  }
  ASSERT_GE(leaves.size(), 2u);
  std::memcpy(p.data() + leaves[1] + 1, p.data() + leaves[0] + 1, 4);
  HT_CHECK_OK(f.file.Write(f.tree->root_page(), p));
  Status s = f.ReopenAndValidate();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("more than once"), std::string::npos)
      << s.ToString();
}

// --- non-finite coordinates -------------------------------------------------
//
// A NaN or infinite coordinate on a data page must not let the page's 8-bit
// sidecar drop its finite rows: a non-finite grid makes every row's code
// bound NaN, which clears every survivor bit. Such a page gets no sidecar
// and is always scanned exactly.

TEST(CorruptionTest, SidecarIsNotBuiltForANonFiniteBlock) {
  const uint32_t dim = 4;
  const size_t count = 12;
  const size_t stride = dim + 2;
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  for (const size_t row : {size_t{0}, size_t{7}, count - 1}) {
    for (const float poison : {kNaN, kInf, -kInf}) {
      std::vector<float> block(count * stride, 0.0f);
      for (size_t i = 0; i < count; ++i) {
        for (uint32_t d = 0; d < dim; ++d) {
          block[i * stride + d] = 0.05f * static_cast<float>(i + d);
        }
      }
      QuantStore store;
      ASSERT_NE(store.GetOrBuild(1, block.data(), stride, count, dim),
                nullptr);
      block[row * stride + dim - 1] = poison;
      EXPECT_EQ(QuantizedPage::Build(block.data(), stride, count, dim),
                nullptr)
          << "row " << row << " holds " << poison;
      EXPECT_EQ(store.GetOrBuild(2, block.data(), stride, count, dim),
                nullptr)
          << "row " << row << " holds " << poison;
      EXPECT_EQ(store.CachedPages(), 1u);
    }
  }
}

std::vector<kernels::SimdTier> SupportedTiers() {
  std::vector<kernels::SimdTier> tiers;
  for (const kernels::SimdTier t :
       {kernels::SimdTier::kScalar, kernels::SimdTier::kAvx2,
        kernels::SimdTier::kAvx512}) {
    if (kernels::TierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

TEST(CorruptionTest, NonFiniteRowKeepsFiniteRowsOfItsPageFindable) {
  // In-page ELS: the reopen below reads the codes back instead of
  // rebuilding them, so no validator pass (HT_DEBUG_VALIDATE) runs over
  // the poisoned pages.
  SeededFixture f;
  const uint32_t dim = 4;
  // Poison row 0 of one data page with NaN and of another with +inf; the
  // searches below are centred on row 1 of each page.
  struct Target {
    uint64_t id;
    std::vector<float> vec;
  };
  std::vector<Target> targets;
  const float poisons[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity()};
  Page p(SeededFixture::kPage);
  for (PageId id = 1; id < f.file.page_count() && targets.size() < 2; ++id) {
    if (!f.file.Read(id, &p).ok()) continue;
    DataPageScan scan(p.data(), p.size(), dim);
    if (!scan.ok() || scan.count() < 2) continue;
    const auto row1 = scan.vec(1);
    targets.push_back({scan.id(1), {row1.begin(), row1.end()}});
    // Row 0's first coordinate follows the entry's 8-byte id.
    std::memcpy(p.data() + DataNode::kHeaderBytes + sizeof(uint64_t),
                &poisons[targets.size() - 1], sizeof(float));
    HT_CHECK_OK(f.file.Write(id, p));
  }
  ASSERT_EQ(targets.size(), 2u);
  // A pool far smaller than the tree, so the searches meet pages that are
  // not resident as well as resident ones, and filter both from their
  // sidecars once the first pass has built them.
  auto tree = HybridTree::Open(&f.file, /*buffer_pool_pages=*/8).ValueOrDie();
  // Both poisoned rows are live rows of the reopened tree.
  size_t nan_rows = 0, inf_rows = 0;
  const auto count_poisoned = [&](uint64_t, std::span<const float> v) {
    if (std::isnan(v[0])) ++nan_rows;
    if (std::isinf(v[0])) ++inf_rows;
  };
  ASSERT_TRUE(tree->ScanAll(count_poisoned).ok());
  EXPECT_EQ(nan_rows, 1u);
  EXPECT_EQ(inf_rows, 1u);

  L2Metric l2;
  std::vector<std::vector<uint64_t>> first;
  for (const kernels::SimdTier tier : SupportedTiers()) {
    kernels::ForceTier(tier);
    std::vector<std::vector<uint64_t>> answers;
    for (int pass = 0; pass < 2; ++pass) {  // the second finds sidecars
      for (const Target& t : targets) {
        const std::string where = std::string("tier ") +
                                  kernels::TierName(tier) + ", row " +
                                  std::to_string(t.id);
        auto range = tree->SearchRange(t.vec, 0.05, l2).ValueOrDie();
        std::sort(range.begin(), range.end());
        EXPECT_TRUE(std::binary_search(range.begin(), range.end(), t.id))
            << "range, " << where;
        std::vector<float> lo = t.vec, hi = t.vec;
        for (uint32_t d = 0; d < dim; ++d) {
          lo[d] -= 0.05f;
          hi[d] += 0.05f;
        }
        auto box = tree->SearchBox(Box::FromBounds(lo, hi)).ValueOrDie();
        std::sort(box.begin(), box.end());
        EXPECT_TRUE(std::binary_search(box.begin(), box.end(), t.id))
            << "box, " << where;
        answers.push_back(std::move(range));
        answers.push_back(std::move(box));
      }
    }
    if (first.empty()) {
      first = std::move(answers);
    } else {
      EXPECT_EQ(answers, first) << "tier " << kernels::TierName(tier);
    }
  }
  kernels::ClearForcedTier();
}

TEST(CorruptionTest, NanRowIsNeverAKnnAnswer) {
  // A NaN distance compares false against every threshold, so without a
  // guard a k-NN heap that is not yet full admits the NaN row, and the
  // row then sits in the answer in place of a finite neighbour. Poison
  // row 0 of one data page and centre every search on row 1 of it.
  SeededFixture f;
  const uint32_t dim = 4;
  std::vector<float> center;
  Page p(SeededFixture::kPage);
  for (PageId id = 1; id < f.file.page_count() && center.empty(); ++id) {
    if (!f.file.Read(id, &p).ok()) continue;
    DataPageScan scan(p.data(), p.size(), dim);
    if (!scan.ok() || scan.count() < 2) continue;
    const auto row1 = scan.vec(1);
    center.assign(row1.begin(), row1.end());
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::memcpy(p.data() + DataNode::kHeaderBytes + sizeof(uint64_t), &nan,
                sizeof(float));
    HT_CHECK_OK(f.file.Write(id, p));
  }
  ASSERT_FALSE(center.empty());
  auto tree = HybridTree::Open(&f.file).ValueOrDie();

  // Brute force over the finite rows, ascending by (distance, id).
  L2Metric l2;
  std::vector<std::pair<double, uint64_t>> finite;
  size_t nan_rows = 0;
  const auto collect = [&](uint64_t id, std::span<const float> v) {
    if (std::isnan(v[0])) {
      ++nan_rows;
    } else {
      finite.emplace_back(l2.Distance(center, v), id);
    }
  };
  ASSERT_TRUE(tree->ScanAll(collect).ok());
  ASSERT_EQ(nan_rows, 1u);
  std::sort(finite.begin(), finite.end());

  for (const kernels::SimdTier tier : SupportedTiers()) {
    kernels::ForceTier(tier);
    SCOPED_TRACE(std::string("tier ") + kernels::TierName(tier));
    for (const size_t k : {size_t{1}, size_t{5}}) {
      SCOPED_TRACE("k " + std::to_string(k));
      const std::vector<std::pair<double, uint64_t>> want(
          finite.begin(), finite.begin() + static_cast<std::ptrdiff_t>(k));
      for (int pass = 0; pass < 2; ++pass) {  // the second finds sidecars
        auto batch = tree->SearchKnn(center, k, l2).ValueOrDie();
        std::sort(batch.begin(), batch.end());
        EXPECT_EQ(batch, want) << "batch";

        KnnCursorOptions copts;
        copts.limit = k;
        HybridTree::KnnCursor cursor = tree->OpenKnnCursor(center, l2, copts);
        std::vector<std::pair<double, uint64_t>> streamed;
        while (streamed.size() < k) {
          auto next = cursor.Next().ValueOrDie();
          if (!next.has_value()) break;
          streamed.push_back(*next);
        }
        std::sort(streamed.begin(), streamed.end());
        EXPECT_EQ(streamed, want) << "cursor";
      }
    }
  }
  kernels::ClearForcedTier();
}

TEST(CorruptionTest, TruncatedDatasetFileRejected) {
  const std::string path =
      std::string(::testing::TempDir()) + "/truncated.htds";
  Rng rng(1802);
  Dataset d = GenUniform(100, 4, rng);
  ASSERT_TRUE(d.SaveTo(path).ok());
  // Truncate the body.
  FILE* fp = fopen(path.c_str(), "r+");
  ASSERT_EQ(ftruncate(fileno(fp), 64), 0);
  fclose(fp);
  EXPECT_FALSE(Dataset::LoadFrom(path).ok());
}

}  // namespace
}  // namespace ht

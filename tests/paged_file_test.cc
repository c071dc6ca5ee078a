// Unit tests for the in-memory and on-disk paged files.

#include "storage/paged_file.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/latency_injecting_file.h"

namespace ht {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

template <typename MakeFile>
void RunBasicContract(MakeFile make) {
  auto file = make();
  EXPECT_EQ(file->page_count(), 0u);

  auto p0 = file->Allocate();
  ASSERT_TRUE(p0.ok());
  auto p1 = file->Allocate();
  ASSERT_TRUE(p1.ok());
  EXPECT_NE(*p0, *p1);

  Page page(file->page_size());
  page.data()[0] = 42;
  page.data()[file->page_size() - 1] = 24;
  ASSERT_TRUE(file->Write(*p1, page).ok());

  Page readback(file->page_size());
  ASSERT_TRUE(file->Read(*p1, &readback).ok());
  EXPECT_EQ(readback.data()[0], 42);
  EXPECT_EQ(readback.data()[file->page_size() - 1], 24);

  // Fresh pages read back zeroed.
  ASSERT_TRUE(file->Read(*p0, &readback).ok());
  EXPECT_EQ(readback.data()[0], 0);

  // Free + reallocate recycles ids.
  ASSERT_TRUE(file->Free(*p0).ok());
  auto p2 = file->Allocate();
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p2, *p0);
}

TEST(MemPagedFileTest, BasicContract) {
  RunBasicContract([] { return std::make_unique<MemPagedFile>(512); });
}

TEST(DiskPagedFileTest, BasicContract) {
  RunBasicContract([] {
    auto r = DiskPagedFile::Create(TempPath("basic.htf"), 512);
    return std::move(r).ValueOrDie();
  });
}

TEST(MemPagedFileTest, ReadUnallocatedFails) {
  MemPagedFile file(256);
  Page p(256);
  EXPECT_TRUE(file.Read(3, &p).IsNotFound());
}

TEST(MemPagedFileTest, DoubleFreeFails) {
  MemPagedFile file(256);
  PageId id = file.Allocate().ValueOrDie();
  EXPECT_TRUE(file.Free(id).ok());
  EXPECT_TRUE(file.Free(id).IsInvalidArgument());
}

TEST(MemPagedFileTest, PageSizeMismatchRejected) {
  MemPagedFile file(256);
  PageId id = file.Allocate().ValueOrDie();
  Page wrong(512);
  EXPECT_TRUE(file.Read(id, &wrong).IsInvalidArgument());
  EXPECT_TRUE(file.Write(id, wrong).IsInvalidArgument());
}

TEST(DiskPagedFileTest, PersistsAcrossReopen) {
  const std::string path = TempPath("reopen.htf");
  PageId id;
  {
    auto file = DiskPagedFile::Create(path, 1024).ValueOrDie();
    id = file->Allocate().ValueOrDie();
    Page page(1024);
    for (size_t i = 0; i < 1024; ++i) {
      page.data()[i] = static_cast<uint8_t>(i % 251);
    }
    ASSERT_TRUE(file->Write(id, page).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  {
    auto file = DiskPagedFile::Open(path).ValueOrDie();
    EXPECT_EQ(file->page_size(), 1024u);
    EXPECT_EQ(file->page_count(), 1u);
    Page page(1024);
    ASSERT_TRUE(file->Read(id, &page).ok());
    for (size_t i = 0; i < 1024; ++i) {
      ASSERT_EQ(page.data()[i], static_cast<uint8_t>(i % 251)) << i;
    }
  }
}

TEST(DiskPagedFileTest, FreelistPersists) {
  const std::string path = TempPath("freelist.htf");
  PageId freed;
  {
    auto file = DiskPagedFile::Create(path, 512).ValueOrDie();
    (void)file->Allocate().ValueOrDie();
    freed = file->Allocate().ValueOrDie();
    (void)file->Allocate().ValueOrDie();
    ASSERT_TRUE(file->Free(freed).ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  {
    auto file = DiskPagedFile::Open(path).ValueOrDie();
    EXPECT_EQ(file->Allocate().ValueOrDie(), freed);
  }
}

TEST(DiskPagedFileTest, OpenMissingFileFails) {
  auto r = DiskPagedFile::Open(TempPath("does-not-exist.htf"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(DiskPagedFileTest, OpenGarbageFails) {
  const std::string path = TempPath("garbage.htf");
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("not a paged file at all, just text", 1, 34, f);
  std::fclose(f);
  auto r = DiskPagedFile::Open(path);
  EXPECT_FALSE(r.ok());
}

TEST(DiskPagedFileTest, OpenFileShorterThanSuperblockIsCorruption) {
  const std::string path = TempPath("short.htf");
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("HTDF", 1, 4, f);
  std::fclose(f);
  auto r = DiskPagedFile::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(DiskPagedFileTest, ReadPastTruncatedEndIsCorruption) {
  // The superblock says two pages exist, but the file ends inside the
  // second: reading it is Corruption, never a short page.
  const std::string path = TempPath("truncated.htf");
  PageId second;
  {
    auto file = DiskPagedFile::Create(path, 256).ValueOrDie();
    (void)file->Allocate().ValueOrDie();
    second = file->Allocate().ValueOrDie();
    ASSERT_TRUE(file->Sync().ok());
  }
  ASSERT_EQ(::truncate(path.c_str(), 256 + 256 + 100), 0);
  auto file = DiskPagedFile::Open(path).ValueOrDie();
  Page p(256);
  EXPECT_TRUE(file->Read(0, &p).ok());
  const Status st = file->Read(second, &p);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// --- ReadBatch -------------------------------------------------------------

/// Allocates `n` pages, stamping page i's bytes with (i * 31 + j) % 251.
template <typename File>
std::vector<PageId> StampPages(File& file, size_t n) {
  std::vector<PageId> ids;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(file.Allocate().ValueOrDie());
    Page p(file.page_size());
    for (size_t j = 0; j < p.size(); ++j) {
      p.data()[j] = static_cast<uint8_t>((i * 31 + j) % 251);
    }
    EXPECT_TRUE(file.Write(ids.back(), p).ok());
  }
  return ids;
}

void ExpectStamp(const Page& p, size_t i) {
  for (size_t j = 0; j < p.size(); ++j) {
    ASSERT_EQ(p.data()[j], static_cast<uint8_t>((i * 31 + j) % 251))
        << "page " << i << " byte " << j;
  }
}

template <typename MakeFile>
void RunReadBatchContract(MakeFile make) {
  auto file = make();
  const size_t kPages = 6;
  std::vector<PageId> ids = StampPages(*file, kPages);

  // Empty batch: OK, no I/O counted.
  file->ResetStats();
  ASSERT_TRUE(file->ReadBatch({}, {}).ok());
  EXPECT_EQ(file->stats().batch_reads, 0u);
  EXPECT_EQ(file->stats().physical_reads, 0u);

  // Full batch in reverse order (exercises the offset sort): one
  // batch_read, n physical reads, every page correct.
  std::vector<Page> pages;
  std::vector<Page*> outs;
  for (size_t i = 0; i < kPages; ++i) pages.emplace_back(file->page_size());
  for (size_t i = 0; i < kPages; ++i) outs.push_back(&pages[i]);
  std::vector<PageId> reversed(ids.rbegin(), ids.rend());
  ASSERT_TRUE(file->ReadBatch(reversed, outs).ok());
  for (size_t i = 0; i < kPages; ++i) ExpectStamp(pages[i], kPages - 1 - i);
  EXPECT_EQ(file->stats().batch_reads, 1u);
  EXPECT_EQ(file->stats().physical_reads, kPages);

  // Duplicate ids: each occurrence is filled (duplicates break coalesced
  // runs, so this also exercises the run-splitting path on disk).
  std::vector<PageId> dups = {ids[2], ids[2], ids[3], ids[2]};
  std::vector<Page> dpages;
  std::vector<Page*> douts;
  for (size_t i = 0; i < dups.size(); ++i) {
    dpages.emplace_back(file->page_size());
  }
  for (size_t i = 0; i < dups.size(); ++i) douts.push_back(&dpages[i]);
  ASSERT_TRUE(file->ReadBatch(dups, douts).ok());
  ExpectStamp(dpages[0], 2);
  ExpectStamp(dpages[1], 2);
  ExpectStamp(dpages[2], 3);
  ExpectStamp(dpages[3], 2);

  // Unallocated id mid-batch: NotFound, and validation happens before any
  // I/O — output pages keep whatever they held (here: the stamp above).
  std::vector<PageId> bad = {ids[0], static_cast<PageId>(9999), ids[1]};
  std::vector<Page*> bouts = {&dpages[0], &dpages[1], &dpages[2]};
  file->ResetStats();
  EXPECT_TRUE(file->ReadBatch(bad, bouts).IsNotFound());
  EXPECT_EQ(file->stats().physical_reads, 0u);

  // Length mismatch between ids and outs.
  std::vector<PageId> two = {ids[0], ids[1]};
  std::vector<Page*> one = {&dpages[0]};
  EXPECT_TRUE(file->ReadBatch(two, one).IsInvalidArgument());

  // Wrong-size output page.
  Page wrong(file->page_size() * 2);
  std::vector<Page*> wouts = {&wrong};
  std::vector<PageId> wids = {ids[0]};
  EXPECT_TRUE(file->ReadBatch(wids, wouts).IsInvalidArgument());
}

TEST(MemPagedFileTest, ReadBatchContract) {
  RunReadBatchContract([] { return std::make_unique<MemPagedFile>(512); });
}

TEST(DiskPagedFileTest, ReadBatchContract) {
  RunReadBatchContract([] {
    auto r = DiskPagedFile::Create(TempPath("batch.htf"), 512);
    return std::move(r).ValueOrDie();
  });
}

TEST(DiskPagedFileTest, ReadBatchCoalescingBoundaries) {
  // Mix of adjacent runs and gaps: ids 0,1,2 | 4 | 6,7 (page 3 and 5 are
  // allocated but skipped), submitted shuffled. Contents must be exact
  // regardless of how runs coalesce into preadv calls.
  auto file = DiskPagedFile::Create(TempPath("coalesce.htf"), 256).ValueOrDie();
  std::vector<PageId> all = StampPages(*file, 8);
  std::vector<PageId> want = {all[6], all[0], all[4], all[2], all[7], all[1]};
  std::vector<size_t> stamp = {6, 0, 4, 2, 7, 1};
  std::vector<Page> pages;
  std::vector<Page*> outs;
  for (size_t i = 0; i < want.size(); ++i) {
    pages.emplace_back(file->page_size());
  }
  for (size_t i = 0; i < want.size(); ++i) outs.push_back(&pages[i]);
  file->ResetStats();
  ASSERT_TRUE(file->ReadBatch(want, outs).ok());
  for (size_t i = 0; i < want.size(); ++i) ExpectStamp(pages[i], stamp[i]);
  EXPECT_EQ(file->stats().batch_reads, 1u);
  EXPECT_EQ(file->stats().physical_reads, want.size());
}

TEST(DiskPagedFileTest, ReadBatchBeyondIovLimit) {
  // More adjacent pages than one preadv can carry (IOV_MAX-bounded): the
  // batch must split internally and still fill every page.
  auto file = DiskPagedFile::Create(TempPath("riov.htf"), 64).ValueOrDie();
  const size_t kPages = 1100;  // > the 1024-iovec cap
  std::vector<PageId> ids = StampPages(*file, kPages);
  std::vector<Page> pages;
  std::vector<Page*> outs;
  for (size_t i = 0; i < kPages; ++i) pages.emplace_back(file->page_size());
  for (size_t i = 0; i < kPages; ++i) outs.push_back(&pages[i]);
  file->ResetStats();
  ASSERT_TRUE(file->ReadBatch(ids, outs).ok());
  EXPECT_EQ(file->stats().batch_reads, 1u);
  EXPECT_EQ(file->stats().physical_reads, kPages);
  for (size_t i = 0; i < kPages; ++i) ExpectStamp(pages[i], i);
}

TEST(LatencyInjectingFileTest, CountsRoundTripsAndDelegates) {
  MemPagedFile base(256);
  std::vector<PageId> ids = StampPages(base, 3);
  LatencyInjectingPagedFile lat(&base);  // zero latency: counting only
  Page p(256);
  ASSERT_TRUE(lat.Read(ids[0], &p).ok());
  ExpectStamp(p, 0);
  std::vector<Page> pages;
  std::vector<Page*> outs;
  for (size_t i = 0; i < 3; ++i) pages.emplace_back(256);
  for (size_t i = 0; i < 3; ++i) outs.push_back(&pages[i]);
  ASSERT_TRUE(lat.ReadBatch(ids, outs).ok());
  for (size_t i = 0; i < 3; ++i) ExpectStamp(pages[i], i);
  // One Read + one ReadBatch = two blocking round trips, regardless of
  // batch size; the wrapped file still counts 4 physical reads.
  EXPECT_EQ(lat.read_calls(), 2u);
  EXPECT_EQ(lat.stats().physical_reads, 4u);
  lat.ResetReadCalls();
  EXPECT_EQ(lat.read_calls(), 0u);
}

// --- WriteBatch ------------------------------------------------------------

template <typename MakeFile>
void RunWriteBatchContract(MakeFile make) {
  auto file = make();
  const size_t kPages = 6;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    ids.push_back(file->Allocate().ValueOrDie());
  }

  // Empty batch: OK, no I/O counted.
  file->ResetStats();
  ASSERT_TRUE(file->WriteBatch({}, {}).ok());
  EXPECT_EQ(file->stats().batch_writes, 0u);
  EXPECT_EQ(file->stats().writes, 0u);

  // Full batch submitted in reverse order (exercises the offset sort): one
  // batch_write, n per-page writes, every page readable afterwards.
  std::vector<Page> pages;
  for (size_t i = 0; i < kPages; ++i) {
    pages.emplace_back(file->page_size());
    for (size_t j = 0; j < pages[i].size(); ++j) {
      pages[i].data()[j] = static_cast<uint8_t>((i * 31 + j) % 251);
    }
  }
  std::vector<PageId> rev_ids(ids.rbegin(), ids.rend());
  std::vector<const Page*> rev_pages;
  for (size_t i = 0; i < kPages; ++i) {
    rev_pages.push_back(&pages[kPages - 1 - i]);
  }
  ASSERT_TRUE(file->WriteBatch(rev_ids, rev_pages).ok());
  EXPECT_EQ(file->stats().batch_writes, 1u);
  EXPECT_EQ(file->stats().writes, kPages);
  for (size_t i = 0; i < kPages; ++i) {
    Page back(file->page_size());
    ASSERT_TRUE(file->Read(ids[i], &back).ok());
    ExpectStamp(back, i);
  }

  // Duplicate ids: rejected up front — after offset sorting, which
  // occurrence would win is unspecified, so the batch is refused before
  // any I/O and the file keeps its previous contents.
  Page zero(file->page_size());
  std::vector<PageId> dup_ids = {ids[1], ids[2], ids[1]};
  std::vector<const Page*> dup_pages = {&zero, &zero, &zero};
  file->ResetStats();
  EXPECT_TRUE(file->WriteBatch(dup_ids, dup_pages).IsInvalidArgument());
  EXPECT_EQ(file->stats().writes, 0u);

  // Unallocated id mid-batch: NotFound, validated before any I/O — the
  // in-range pages of the batch must NOT have been written.
  std::vector<PageId> bad_ids = {ids[0], static_cast<PageId>(9999)};
  std::vector<const Page*> bad_pages = {&zero, &zero};
  EXPECT_TRUE(file->WriteBatch(bad_ids, bad_pages).IsNotFound());
  EXPECT_EQ(file->stats().writes, 0u);
  Page back(file->page_size());
  ASSERT_TRUE(file->Read(ids[0], &back).ok());
  ExpectStamp(back, 0);

  // Length mismatch and wrong-size buffers.
  std::vector<PageId> two = {ids[0], ids[1]};
  std::vector<const Page*> one = {&zero};
  EXPECT_TRUE(file->WriteBatch(two, one).IsInvalidArgument());
  Page wrong(file->page_size() * 2);
  std::vector<PageId> wids = {ids[0]};
  std::vector<const Page*> wpages = {&wrong};
  EXPECT_TRUE(file->WriteBatch(wids, wpages).IsInvalidArgument());
  std::vector<const Page*> npages = {nullptr};
  EXPECT_TRUE(file->WriteBatch(wids, npages).IsInvalidArgument());
  ASSERT_TRUE(file->Read(ids[0], &back).ok());
  ExpectStamp(back, 0);
}

TEST(MemPagedFileTest, WriteBatchContract) {
  RunWriteBatchContract([] { return std::make_unique<MemPagedFile>(512); });
}

TEST(DiskPagedFileTest, WriteBatchContract) {
  RunWriteBatchContract([] {
    auto r = DiskPagedFile::Create(TempPath("wbatch.htf"), 512);
    return std::move(r).ValueOrDie();
  });
}

TEST(DiskPagedFileTest, WriteBatchCoalescingBoundaries) {
  // Adjacent runs and gaps — ids 0,1,2 | 4 | 6,7 written, 3 and 5 left
  // zeroed — submitted shuffled. Readback must be exact regardless of how
  // runs coalesce into pwritev calls, and the skipped pages must stay
  // untouched.
  auto file =
      DiskPagedFile::Create(TempPath("wcoalesce.htf"), 256).ValueOrDie();
  std::vector<PageId> all;
  for (size_t i = 0; i < 8; ++i) all.push_back(file->Allocate().ValueOrDie());
  std::vector<size_t> stamp = {6, 0, 4, 2, 7, 1};
  std::vector<Page> pages;
  for (size_t s : stamp) {
    pages.emplace_back(file->page_size());
    for (size_t j = 0; j < pages.back().size(); ++j) {
      pages.back().data()[j] = static_cast<uint8_t>((s * 31 + j) % 251);
    }
  }
  std::vector<PageId> ids;
  std::vector<const Page*> ptrs;
  for (size_t i = 0; i < stamp.size(); ++i) {
    ids.push_back(all[stamp[i]]);
    ptrs.push_back(&pages[i]);
  }
  file->ResetStats();
  ASSERT_TRUE(file->WriteBatch(ids, ptrs).ok());
  EXPECT_EQ(file->stats().batch_writes, 1u);
  EXPECT_EQ(file->stats().writes, stamp.size());
  for (size_t s : {6, 0, 4, 2, 7, 1}) {
    Page back(file->page_size());
    ASSERT_TRUE(file->Read(all[s], &back).ok());
    ExpectStamp(back, s);
  }
  for (size_t s : {3, 5}) {
    Page back(file->page_size());
    ASSERT_TRUE(file->Read(all[s], &back).ok());
    for (size_t j = 0; j < back.size(); ++j) {
      ASSERT_EQ(back.data()[j], 0u) << "page " << s << " byte " << j;
    }
  }
}

TEST(DiskPagedFileTest, WriteBatchBeyondIovLimit) {
  // More adjacent pages than one pwritev can carry (IOV_MAX-bounded): the
  // batch must split internally and still land every page.
  auto file = DiskPagedFile::Create(TempPath("wiov.htf"), 64).ValueOrDie();
  const size_t kPages = 1100;  // > the 1024-iovec cap
  std::vector<PageId> ids;
  for (size_t i = 0; i < kPages; ++i) {
    ids.push_back(file->Allocate().ValueOrDie());
  }
  std::vector<Page> pages;
  std::vector<const Page*> ptrs;
  for (size_t i = 0; i < kPages; ++i) {
    pages.emplace_back(file->page_size());
    pages[i].data()[0] = static_cast<uint8_t>(i % 251);
  }
  for (size_t i = 0; i < kPages; ++i) ptrs.push_back(&pages[i]);
  file->ResetStats();
  ASSERT_TRUE(file->WriteBatch(ids, ptrs).ok());
  EXPECT_EQ(file->stats().batch_writes, 1u);
  for (size_t i = 0; i < kPages; ++i) {
    Page back(file->page_size());
    ASSERT_TRUE(file->Read(ids[i], &back).ok());
    ASSERT_EQ(back.data()[0], static_cast<uint8_t>(i % 251)) << i;
  }
}

TEST(LatencyInjectingFileTest, CountsWriteRoundTrips) {
  MemPagedFile base(256);
  std::vector<PageId> ids;
  for (size_t i = 0; i < 3; ++i) ids.push_back(base.Allocate().ValueOrDie());
  LatencyInjectingPagedFile lat(&base);  // zero latency: counting only
  Page p(256);
  ASSERT_TRUE(lat.Write(ids[0], p).ok());
  std::vector<const Page*> ptrs = {&p, &p, &p};
  // Aliasing one buffer across the batch is fine: distinct ids.
  ASSERT_TRUE(lat.WriteBatch(ids, ptrs).ok());
  // One Write + one WriteBatch = two blocking round trips regardless of
  // batch size; the wrapped file still counts 4 per-page writes.
  EXPECT_EQ(lat.write_calls(), 2u);
  EXPECT_EQ(lat.stats().writes, 4u);
  EXPECT_EQ(lat.stats().batch_writes, 1u);
  lat.ResetWriteCalls();
  EXPECT_EQ(lat.write_calls(), 0u);
}

// --- Concurrency -----------------------------------------------------------

/// The overlaps the thread-safety contract promises: four threads Read and
/// ReadBatch stamped pages while two threads WriteBatch their own disjoint
/// preallocated ranges (the buffer pool's shared-file-lock reads and the
/// parallel bulk loader's per-worker writes). Every page read must carry
/// its exact stamp, every written page must read back its last stamp, and
/// the relaxed counters must add up.
template <typename MakeFile>
void RunConcurrentReadsAndDisjointWrites(MakeFile make) {
  auto file = make();
  constexpr size_t kReadPages = 48;
  constexpr size_t kWriters = 2;
  constexpr size_t kWritePages = 40;  // per writer, one contiguous range
  constexpr size_t kReaders = 4;
  constexpr size_t kRounds = 40;
  std::vector<PageId> read_ids = StampPages(*file, kReadPages);
  std::vector<std::vector<PageId>> write_ids(kWriters);
  for (auto& range : write_ids) {
    for (size_t k = 0; k < kWritePages; ++k) {
      range.push_back(file->Allocate().ValueOrDie());
    }
  }
  // Writer w's page k in round r carries stamp write_stamp(w, k, r).
  const auto write_stamp = [](size_t w, size_t k, size_t r) {
    return 1000 + (w * kWritePages + k) * 7 + r;
  };
  file->ResetStats();

  std::atomic<size_t> bad_reads{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Page> pages;
      for (size_t i = 0; i < 6; ++i) pages.emplace_back(file->page_size());
      std::vector<Page*> outs;
      for (Page& p : pages) outs.push_back(&p);
      const auto stamped = [](const Page& p, size_t i) {
        for (size_t j = 0; j < p.size(); ++j) {
          if (p.data()[j] != static_cast<uint8_t>((i * 31 + j) % 251)) {
            return false;
          }
        }
        return true;
      };
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t i = (t * 11 + r * 5) % kReadPages;
        if (!file->Read(read_ids[i], &pages[0]).ok() ||
            !stamped(pages[0], i)) {
          bad_reads.fetch_add(1);
        }
        // An adjacent run, a gap, and a repeated id in one batch.
        const size_t base = (t * 7 + r * 3) % (kReadPages - 4);
        const std::vector<size_t> picks = {base + 2, base,     base + 1,
                                           base + 4, base + 1, base + 3};
        std::vector<PageId> ids;
        for (size_t pick : picks) ids.push_back(read_ids[pick]);
        if (!file->ReadBatch(ids, outs).ok()) bad_reads.fetch_add(1);
        for (size_t q = 0; q < picks.size(); ++q) {
          if (!stamped(pages[q], picks[q])) bad_reads.fetch_add(1);
        }
      }
    });
  }
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<Page> pages;
      for (size_t k = 0; k < kWritePages; ++k) {
        pages.emplace_back(file->page_size());
      }
      std::vector<const Page*> ptrs;
      for (const Page& p : pages) ptrs.push_back(&p);
      // Submitted in reverse order, so every batch is offset-sorted.
      std::vector<PageId> ids(write_ids[w].rbegin(), write_ids[w].rend());
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t q = 0; q < kWritePages; ++q) {
          const size_t k = kWritePages - 1 - q;
          for (size_t j = 0; j < pages[q].size(); ++j) {
            pages[q].data()[j] =
                static_cast<uint8_t>((write_stamp(w, k, r) * 31 + j) % 251);
          }
        }
        EXPECT_TRUE(file->WriteBatch(ids, ptrs).ok());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  const IoStats s = file->stats();
  EXPECT_EQ(s.batch_reads, kReaders * kRounds);
  EXPECT_EQ(s.physical_reads, kReaders * kRounds * 7);
  EXPECT_EQ(s.batch_writes, kWriters * kRounds);
  EXPECT_EQ(s.writes, kWriters * kRounds * kWritePages);
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t k = 0; k < kWritePages; ++k) {
      Page back(file->page_size());
      ASSERT_TRUE(file->Read(write_ids[w][k], &back).ok());
      ExpectStamp(back, write_stamp(w, k, kRounds - 1));
    }
  }
  for (size_t i = 0; i < kReadPages; ++i) {
    Page back(file->page_size());
    ASSERT_TRUE(file->Read(read_ids[i], &back).ok());
    ExpectStamp(back, i);
  }
}

TEST(MemPagedFileTest, ConcurrentReadsAndDisjointWriteBatches) {
  RunConcurrentReadsAndDisjointWrites(
      [] { return std::make_unique<MemPagedFile>(256); });
}

TEST(DiskPagedFileTest, ConcurrentReadsAndDisjointWriteBatches) {
  RunConcurrentReadsAndDisjointWrites([] {
    auto r = DiskPagedFile::Create(TempPath("concurrent.htf"), 256);
    return std::move(r).ValueOrDie();
  });
}

TEST(PagedFileTest, StatsCountOperations) {
  MemPagedFile file(256);
  PageId id = file.Allocate().ValueOrDie();
  Page p(256);
  ASSERT_TRUE(file.Write(id, p).ok());
  ASSERT_TRUE(file.Read(id, &p).ok());
  ASSERT_TRUE(file.Read(id, &p).ok());
  EXPECT_EQ(file.stats().allocations, 1u);
  EXPECT_EQ(file.stats().writes, 1u);
  EXPECT_EQ(file.stats().physical_reads, 2u);
  file.ResetStats();
  EXPECT_EQ(file.stats().physical_reads, 0u);
}

}  // namespace
}  // namespace ht

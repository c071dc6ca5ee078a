// Copyright 2026 The HybridTree Authors.
// I/O accounting for the paged storage engine and the evaluation harness.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ht {

/// Buffer-pool eviction policy (see storage/buffer_pool.h). kLru is the
/// classic recency-only pool the paper figures use; kSlru is the
/// scan-resistant segmented policy (probationary + protected segments with
/// a frequency sketch) — byte-identical query RESULTS either way, only the
/// physical-read pattern differs.
enum class CachePolicy : uint8_t { kLru = 0, kSlru = 1 };

/// Access classes for buffer-pool traffic, threaded from the call sites via
/// AccessClassScope (storage/buffer_pool.h). The class drives SLRU
/// admission (scans and bulk loads enter the probationary segment only, so
/// one-touch streams never displace the multi-touch query working set) and
/// splits the cache counters below for observability.
enum class AccessClass : uint8_t {
  kQuery = 0,     // point/box/range/k-NN search traversal (the default)
  kScan = 1,      // full-tree sweeps: ScanAll, ELS rebuild, stats/validation
  kPrefetch = 2,  // speculative fills issued by the prefetch pipeline
  kIngest = 3,    // Insert/InsertBatch/Delete/Flush/bulk-load write paths
};
inline constexpr size_t kNumAccessClasses = 4;

inline const char* AccessClassName(AccessClass c) {
  switch (c) {
    case AccessClass::kQuery:
      return "query";
    case AccessClass::kScan:
      return "scan";
    case AccessClass::kPrefetch:
      return "prefetch";
    case AccessClass::kIngest:
      return "ingest";
  }
  return "unknown";
}

/// The scalar counters of IoStats, listed once. Each X(name) becomes a
/// uint64_t field, and Accumulate and Delta are generated from the same
/// list, so a new counter is merged and diffed like every other one.
///   logical_reads     page fetches requested by an index structure
///   physical_reads    fetches that missed the pool and read the file
///   writes            pages written back to the file
///   allocations       pages allocated (New)
///   frees             pages freed
///   evictions         frames evicted from the pool
///   batch_reads       ReadBatch round trips to a backing file (each may
///                     cover many pages; per-page cost is physical_reads)
///   batch_writes      WriteBatch round trips (the write-side dual; the
///                     per-page cost is in writes)
///   prefetch_issued   pages handed to the prefetch pipeline for a
///                     best-effort, non-pinning fill. Prefetched fills
///                     count as physical reads only — never as logical
///                     reads.
///   prefetch_hits     fetches that hit a frame brought in by prefetch
///                     (first pin only)
///   quant_skipped_pages  data pages a search ruled out from their
///                     in-memory sidecar without fetching them. A search
///                     visits logical_reads + quant_skipped_pages pages
///                     (PagesVisited), the paper's figure of merit: the
///                     same count a tree without sidecars reads.
///   scan_points       points entering a data-page distance scan
///                     (filtered or not), from any search path. This and
///                     the two quant_* counters below, with
///                     quant_skipped_pages, are tallied per search (a
///                     ScanTally) and charged when the search call or
///                     cursor pull returns, so they move once per call
///                     while the others move once per page access
///   quant_refined     points that survived the quantized-code filter and
///                     got an exact distance (filtered scans only)
///   quant_pruned      points the code lower bound pruned without an exact
///                     distance. On a filtered page, scan_points splits
///                     exactly into quant_refined + quant_pruned.
///   pin_overflows     demand fetches (Fetch / New) admitted
///                     over the pool's capacity target because every
///                     resident frame was pinned by concurrent queries.
///                     The overflow is transient: the eviction loop drains
///                     the pool back to target once pins release. A
///                     persistently nonzero rate means the pool is
///                     undersized for its concurrency.
#define HT_IO_STATS_COUNTERS(X) \
  X(logical_reads)              \
  X(physical_reads)             \
  X(writes)                     \
  X(allocations)                \
  X(frees)                      \
  X(evictions)                  \
  X(batch_reads)                \
  X(batch_writes)               \
  X(prefetch_issued)            \
  X(prefetch_hits)              \
  X(quant_skipped_pages)        \
  X(scan_points)                \
  X(quant_refined)              \
  X(quant_pruned)               \
  X(pin_overflows)

#define HT_IO_STATS_DECLARE(name) uint64_t name = 0;

/// Counters maintained by BufferPool / PagedFile. "Logical" reads count
/// every page fetch requested by an index structure; "physical" reads count
/// fetches that missed the buffer pool and touched the backing file.
///
/// The paper reports *disk accesses per query* assuming each visited node
/// costs one random access, and normalizes sequential scan by a factor of
/// 10 (sequential I/O ≈ 10x faster than random). The harness therefore uses
/// the pages a query visits (PagesVisited: logical reads plus the data
/// pages ruled out from their sidecars) as the figure-of-merit, so the
/// hybrid tree is counted like the baselines, which have no sidecars, and
/// keeps physical counters for buffer-pool experiments.
struct IoStats {
  HT_IO_STATS_COUNTERS(HT_IO_STATS_DECLARE)

  /// Pages visited: fetched, or ruled out from a sidecar without a fetch.
  uint64_t PagesVisited() const { return logical_reads + quant_skipped_pages; }

  /// Per-access-class cache counters, indexed by AccessClass. Hits and
  /// misses cover demand accesses (Fetch) only — New() and
  /// prefetch fills are counted by allocations / prefetch_issued above —
  /// so class_hits[c] + class_misses[c] is class c's demand-fetch count.
  /// Evictions are charged to the class that ADMITTED the victim frame
  /// (kPrefetch for prefetched-never-referenced pages), which is what
  /// makes scan/prefetch cache pollution directly visible.
  std::array<uint64_t, kNumAccessClasses> class_hits{};
  std::array<uint64_t, kNumAccessClasses> class_misses{};
  std::array<uint64_t, kNumAccessClasses> class_evictions{};

  void Reset() { *this = IoStats{}; }

  /// Buffer-pool hit rate over the counted window: the fraction of logical
  /// reads served without touching the backing file.
  double HitRate() const {
    if (logical_reads == 0) return 0.0;
    const uint64_t misses =
        physical_reads < logical_reads ? physical_reads : logical_reads;
    return 1.0 - static_cast<double>(misses) /
                     static_cast<double>(logical_reads);
  }

  /// Fraction of all scanned points pruned by the quantized-code lower
  /// bound without an exact distance computation. 0 when no points were
  /// scanned.
  double QuantPruneRate() const {
    if (scan_points == 0) return 0.0;
    return static_cast<double>(quant_pruned) /
           static_cast<double>(scan_points);
  }

  /// Demand-fetch hit rate of one access class (class_hits over
  /// class_hits + class_misses); 0 when the class saw no traffic.
  double ClassHitRate(AccessClass c) const {
    const uint64_t h = class_hits[static_cast<size_t>(c)];
    const uint64_t m = class_misses[static_cast<size_t>(c)];
    if (h + m == 0) return 0.0;
    return static_cast<double>(h) / static_cast<double>(h + m);
  }

  /// Adds `other` into this (used to merge per-shard / per-worker counters).
  void Accumulate(const IoStats& other) {
#define HT_IO_STATS_ADD(name) this->name += other.name;
    HT_IO_STATS_COUNTERS(HT_IO_STATS_ADD)
#undef HT_IO_STATS_ADD
    for (size_t c = 0; c < kNumAccessClasses; ++c) {
      class_hits[c] += other.class_hits[c];
      class_misses[c] += other.class_misses[c];
      class_evictions[c] += other.class_evictions[c];
    }
  }

  /// This minus `since`, counter by counter.
  IoStats Delta(const IoStats& since) const {
    IoStats d = *this;
#define HT_IO_STATS_SUB(name) d.name -= since.name;
    HT_IO_STATS_COUNTERS(HT_IO_STATS_SUB)
#undef HT_IO_STATS_SUB
    for (size_t c = 0; c < kNumAccessClasses; ++c) {
      d.class_hits[c] -= since.class_hits[c];
      d.class_misses[c] -= since.class_misses[c];
      d.class_evictions[c] -= since.class_evictions[c];
    }
    return d;
  }

  /// Calls fn(a.x, b.x) for every counter x, scalar and per-class: the
  /// relaxed atomic loads and resets of the pool's and the files' counters
  /// walk this one list.
  template <typename Fn>
  static void ForEachCounterPair(IoStats& a, IoStats& b, Fn fn) {
#define HT_IO_STATS_PAIR(name) fn(a.name, b.name);
    HT_IO_STATS_COUNTERS(HT_IO_STATS_PAIR)
#undef HT_IO_STATS_PAIR
    for (size_t c = 0; c < kNumAccessClasses; ++c) {
      fn(a.class_hits[c], b.class_hits[c]);
      fn(a.class_misses[c], b.class_misses[c]);
      fn(a.class_evictions[c], b.class_evictions[c]);
    }
  }
};

/// A search's scan counters (the IoStats fields of the same names), summed
/// per page as the search runs and charged to the buffer pool in one
/// BufferPool::CountScans call when the search call or cursor pull
/// returns, on error paths too.
struct ScanTally {
  uint64_t scan_points = 0;
  uint64_t quant_refined = 0;
  uint64_t quant_pruned = 0;
  uint64_t quant_skipped_pages = 0;

  /// One data-page scan of `rows` points; when `filtered`, `survivors` of
  /// them passed the code filter and the rest were pruned.
  void AddScan(uint64_t rows, uint64_t survivors, bool filtered) {
    scan_points += rows;
    if (filtered) {
      quant_refined += survivors;
      quant_pruned += rows - survivors;
    }
  }
};

namespace io_stats_detail {
/// The scalar counters alone: a field added to IoStats outside
/// HT_IO_STATS_COUNTERS changes its size and fails the check below.
struct Scalars {
  HT_IO_STATS_COUNTERS(HT_IO_STATS_DECLARE)
};
}  // namespace io_stats_detail
static_assert(sizeof(IoStats) ==
                  sizeof(io_stats_detail::Scalars) +
                      3 * sizeof(std::array<uint64_t, kNumAccessClasses>),
              "every IoStats counter must be listed in HT_IO_STATS_COUNTERS");

#undef HT_IO_STATS_DECLARE

}  // namespace ht

// Copyright 2026 The HybridTree Authors.
// Runtime-dispatched SIMD distance kernels for the data-page scan hot path.
//
// Three tiers — scalar (mandatory fallback, the reference), AVX2, and
// AVX-512 (compiled only when the toolchain supports the flags; executed
// only when CPUID reports support) — each providing bounded batch-distance
// kernels for L1/L2/LInf/WeightedL2 over the DataPageScan::block() layout,
// fused u8 mask-filter kernels and a box test over the quantized page
// sidecars, and the directory-node box kernels. The tier is selected
// ONCE, at first use: best CPUID-supported tier, overridable
// with HT_SIMD=scalar|avx2|avx512 (unsupported requests clamp down to the
// best supported tier), and pinnable in-process with ForceTier() for
// tests and benches. Active() is then one relaxed load of the chosen
// table's address.
//
// One template per kernel family and tier. The four metrics differ only
// in their per-dimension accumulation (Acc), so each tier writes its
// batch-distance, mask and MINDIST loops once, as a template over Acc,
// and instantiates it straight into its table; row_ref.h holds the scalar
// references the other tiers replay.
//
// Bit-identity contract. Every tier must produce outputs bit-identical to
// the scalar reference: distances for every row within the bound, survivor
// masks for every row, MINDISTs and box predicates for every box. The SIMD
// tiers achieve this by vectorizing ACROSS ROWS (or boxes), one per double
// lane: each lane replays the scalar per-row accumulation exactly — same
// element order, same double-precision sub/mul/add sequence (never FMA:
// the scalar build contracts nothing, so the vector lanes must not either;
// these files are compiled without -mfma and use separate mul/add
// intrinsics), same every-kAbandonBlock checkpoint schedule, and
// abandonment only at checkpoints strictly before the final block (the
// scalar loop's break on the final checkpoint still emits the finished
// value, so a lane may only go dead early). The rows left over after the
// last whole row group of a batch-distance kernel go to the scalar tier's
// kernel, and the dimension tails of the AVX-512 filter prep are masked
// lanes. The sidecar box test returns one row mask byte per block, equal
// at every tier.
//
// No weak symbols in the SIMD objects. A SIMD translation unit that calls
// an inline function of a header (a reference row, quant::PrepareFilter,
// a std:: template) may emit its own copy, built with that tier's flags,
// and the linker may then pick that copy for every tier. So the SIMD
// files call no such function: their scalar work goes through the
// functions defined in scalar.cc (AbandonSquare, quant::PrepareFilter,
// ScalarTable). CI checks a Debug build's avx2.cc.o and avx512.cc.o for
// weak symbols.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace ht::kernels {

/// The output of an abandoned row, and the bound that abandons none.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Early-abandon checkpoint interval: partial sums are tested against the
/// bound only every kAbandonBlock dimensions so the accumulation loop stays
/// auto-vectorizable between checkpoints (the KDTREE2 trick). The SIMD
/// tiers replicate the same schedule so abandonment decisions — and hence
/// outputs — are bit-identical to the scalar reference.
inline constexpr size_t kAbandonBlock = 8;

/// Abandon threshold in squared-distance space: the smallest partial sum
/// that *provably* implies sqrt(full_sum) > bound. Monotone non-negative
/// accumulation means full_sum >= partial_sum, and sqrt is correctly
/// rounded, so a few ulps of slack over bound^2 make the implication hold
/// under rounding; without the slack a row with distance == bound could be
/// wrongly abandoned. +infinity (never abandon) for unbounded inputs.
/// Defined in scalar.cc, the one copy every tier calls.
double AbandonSquare(double bound);

/// The per-dimension accumulation of a kernel metric, one kernel of each
/// family per value (the index into KernelTable's arrays). With x_d the
/// dimension's term — q_d - r_d for a batch distance, a code gap for a
/// mask, an AxisGap for a MINDIST — the accumulator is sum |x_d| (kSum,
/// L1), sum x_d * x_d (kSumSq, L2), the running max of |x_d| replaced only
/// by a strictly greater term (kMax, LInf), or sum (w_d * x_d) * x_d
/// (kWeightedSumSq, WeightedL2), each in dimension order. The distance of
/// the squares is the sqrt of the accumulator.
enum Acc : uint8_t { kSum, kSumSq, kMax, kWeightedSumSq };

constexpr bool IsSquared(Acc acc) {
  return acc == kSumSq || acc == kWeightedSumSq;
}

enum class SimdTier : uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* TierName(SimdTier tier);

/// Bounded batch distance over a row-major float block (the signature of
/// DistanceMetric::BatchDistanceWithBound, minus the span; `w` is
/// WeightedL2's per-dimension weights, read by kWeightedSumSq only).
/// Passing bound = +infinity never abandons: out[i] is exact for every row.
using BatchBoundFn = void (*)(const float* q, const double* w, size_t dim,
                              const float* pts, size_t stride, size_t n,
                              double bound, double* out);

/// Block-transposed code layout of a page sidecar (storage/quant_store.h):
/// kTBlock rows per block, dimension-major within a block, so dimension d
/// of block b's rows is the contiguous 8-byte group
/// tcodes[(b * dim + d) * kTBlock .. +7]. A page of `count` rows fills
/// ceil(count / kTBlock) whole blocks; the lanes past `count` repeat the
/// last row, so every lane holds some real row's codes.
inline constexpr size_t kTBlock = 8;

/// Fused mask-filter kernels: one call tests one page sidecar against one
/// query. Inputs are the query `q`, the page's grid [grid_lo, grid_hi]
/// and its `nblocks` whole blocks of transposed codes, all over `dim`
/// dimensions (`wf`: WeightedL2's weights as floats, read by
/// kWeightedSumSq only).
///
/// Prep. The kernel first prepares the (query, page) pair in `prep`, a
/// caller buffer of 3 * dim floats: above_d at prep[d], below_d at
/// prep[dim + d] and the cell width scale_d at prep[2 * dim + d]. The
/// values are quant::PrepareFilter's, bit for bit: the scalar and AVX2
/// tiers call that reference; AVX-512 computes eight dimensions per
/// vector with the same double operations in the same order and no FMA,
/// its dimension tail in masked lanes.
///
/// Masks. Each lane then accumulates its row's per-dimension code gaps
/// (row_ref.h CodeGap) in dimension order — float gaps widened to double and
/// accumulated as Acc says (the max may run in float: widening is exact and
/// monotone) — and compares the raw accumulator, before any slack or sqrt (see
/// quant::FilterThreshold), against `threshold`: bit `lane` of masks[b] is set
/// iff row b * kTBlock + lane may be within the bound. The SIMD tiers may
/// abandon a block at a checkpoint once every lane exceeds the threshold (the
/// accumulators are monotone, so the zero mask is what full accumulation
/// gives). Lanes replay the scalar order and IEEE compares treat -0.0 == +0.0,
/// so every mask byte is bitwise identical across tiers. Bits of padding lanes
/// copy the last row's; the caller clears them (quant::ClearPaddingBits).
using CodeMaskTFn = void (*)(const float* q, const float* wf,
                             const float* grid_lo, const float* grid_hi,
                             size_t dim, const uint8_t* tcodes,
                             size_t nblocks, double threshold, float* prep,
                             uint8_t* masks);

/// Sidecar box test: one call tests one page sidecar (its grid and
/// `nblocks` blocks of transposed codes, as above) against the closed box
/// [lo, hi], all over `dim` dimensions, and writes masks[b] for every
/// block: bit `lane` is set iff the codes of row b * kTBlock + lane lie
/// inside the box's code range in every dimension — the range
/// quant::BoxCodeRange computes, [QuantizeLo(lo_d), QuantizeLo(hi_d)] on
/// the grid, with a bound beyond the grid ruling out every row and a NaN
/// bound putting no limit on its side. Returns true iff some bit is set.
/// `range` is a caller buffer of 2 * dim * kTBlock bytes for the range.
/// Every mask byte is the scalar reference's (quant::RowsMayBeInBox) for
/// every input. The SIMD tiers first compare every bound with the grid
/// and return before any division; then they compute the range (eight
/// dimensions per double vector on AVX-512, four on AVX2) with the
/// reference's operations (no reciprocal, no FMA), dividing only where
/// the box cuts the grid — QuantizeLo of a bound at or below grid_lo is
/// cell 0 and at or above grid_hi the last cell, and a zero-width grid
/// dimension stays 0 — spread each dimension's range over its kTBlock
/// lanes in `range`, and test 64 (AVX-512) or 32 (AVX2) code bytes per
/// unsigned byte compare. Bits of padding lanes copy the last row's; the
/// caller clears them (quant::ClearPaddingBits).
using CodeBoxTFn = bool (*)(const float* lo, const float* hi,
                            const float* grid_lo, const float* grid_hi,
                            size_t dim, const uint8_t* tcodes,
                            size_t nblocks, uint8_t* range, uint8_t* masks);

/// Single-box predicates over raw per-dimension bound arrays (`a` is the
/// receiver, `b` the probe box; closed intervals, `dim` floats each), the
/// loops behind Box::Intersects and Box::ContainsBox and the reference
/// box_overlap must match for each box. BoxIntersectsScalar is false iff
/// some dimension proves disjointness (bhi[d] < alo[d] || blo[d] >
/// ahi[d]); BoxContainsScalar is false iff some dimension proves b
/// escapes a (blo[d] < alo[d] || bhi[d] > ahi[d]). Ordered compares, so a
/// NaN bound never proves disjointness or escape. They have no SIMD tier:
/// the hybrid tree's query path does not call them; their callers are the
/// baseline trees' directory tests, hB split posting and TreeValidator.
inline bool BoxIntersectsScalar(const float* alo, const float* ahi,
                                const float* blo, const float* bhi,
                                size_t dim) {
  for (size_t d = 0; d < dim; ++d) {
    if (bhi[d] < alo[d] || blo[d] > ahi[d]) return false;
  }
  return true;
}

inline bool BoxContainsScalar(const float* alo, const float* ahi,
                              const float* blo, const float* bhi,
                              size_t dim) {
  for (size_t d = 0; d < dim; ++d) {
    if (blo[d] < alo[d] || bhi[d] > ahi[d]) return false;
  }
  return true;
}

/// Lane padding of a dimension-major box set (geometry/box.h BoxSetView):
/// box i's bounds in dimension d sit at lo[d * stride + i] and
/// hi[d * stride + i], and stride is a multiple of kBoxLanes. Sixteen
/// float lanes fill one AVX-512 register and are a whole number of AVX2
/// (8 float / 4 double) and AVX-512 double (8) lane groups, so no tier
/// falls to a scalar tail.
inline constexpr size_t kBoxLanes = 16;

/// The per-dimension step of every MINDIST: the gap between q and the
/// closed interval [lo, hi], 0 inside. Ordered compares, so a NaN bound
/// contributes 0; when an inverted interval has q below lo and above hi,
/// the lo side wins. The batch MINDIST kernels replay exactly this
/// selection in each double lane.
inline double AxisGap(double q, double lo, double hi) {
  if (q < lo) return lo - q;
  if (q > hi) return q - hi;
  return 0.0;
}

/// Batch MINDIST over a dimension-major box set: out[i] is bit-identical
/// to the metric's MinDistToBox(q, box i) for i < n. One box per double
/// lane: each lane widens its float bounds to double, selects the gap with
/// AxisGap's ordered compares and accumulates it in dimension order as Acc
/// says (kSum, kSumSq or kMax), with no FMA. Kernels process whole lane
/// groups, so they may also write out[n .. stride); callers size `out` to
/// stride.
using BoxMinDistFn = void (*)(const float* q, size_t dim, const float* lo,
                              const float* hi, size_t stride, size_t n,
                              double* out);

/// Query-versus-box-set overlap for the boxes selected by `active` (bit i
/// of active[i / 64] selects box i; the caller keeps bits at and above n
/// clear). Writes ceil(n / 64) words of each mask: bit i of `intersects`
/// is set iff box i is active and BoxIntersectsScalar(qlo, qhi, box i) holds
/// (Box::Intersects with the query as the receiver); bit i of `contains`
/// iff box i is active and BoxContainsScalar(qlo, qhi, box i) holds. Lane
/// groups with no active box are skipped.
using BoxOverlapFn = void (*)(const float* qlo, const float* qhi, size_t dim,
                              const float* lo, const float* hi, size_t stride,
                              size_t n, const uint64_t* active,
                              uint64_t* intersects, uint64_t* contains);

/// One tier's kernels, 13 entries, the arrays indexed by Acc: the strided
/// batch distances a page scan refines with (batch), the fused sidecar
/// masks it filters with (ctm), the sidecar box masks box search filters
/// an admitted page's rows with (ctm_box), and the directory-node MINDISTs
/// (mindist: no WeightedL2 entry) and box-set overlap.
struct KernelTable {
  SimdTier tier;
  BatchBoundFn batch[4];
  CodeMaskTFn ctm[4];
  CodeBoxTFn ctm_box;
  BoxMinDistFn mindist[3];
  BoxOverlapFn box_overlap;
};

namespace detail {
/// The active table: null until first use, then the startup selection or
/// the ForceTier pin. Relaxed: a racing reader would only dispatch one
/// call at the previous tier, and every tier gives the same results.
extern std::atomic<const KernelTable*> g_active;
/// First use: reads HT_SIMD (warning on a bad value) and publishes the
/// startup table unless ForceTier got there first.
const KernelTable& SelectActive();
}  // namespace detail

/// The table the metrics dispatch through (see the selection rules above).
inline const KernelTable& Active() {
  const KernelTable* t = detail::g_active.load(std::memory_order_relaxed);
  return t != nullptr ? *t : detail::SelectActive();
}
inline SimdTier ActiveTier() { return Active().tier; }

/// Best tier this build + CPU can execute (CPUID, cached).
SimdTier BestSupportedTier();
bool TierSupported(SimdTier tier);

/// Table for a specific supported tier (HT_CHECKs TierSupported).
const KernelTable& TableForTier(SimdTier tier);

/// Pins the active tier in-process, overriding CPUID and HT_SIMD — the
/// tier-sweep hook for tests and benches. The tier must be supported.
void ForceTier(SimdTier tier);
/// Reverts ForceTier to the startup selection (reading HT_SIMD if
/// nothing has read it yet).
void ClearForcedTier();

}  // namespace ht::kernels

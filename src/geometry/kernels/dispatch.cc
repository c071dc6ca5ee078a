// Copyright 2026 The HybridTree Authors.
// Tier selection: CPUID and HT_SIMD once at first use, ForceTier hook.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"
#include "geometry/kernels/tables.h"

namespace ht::kernels {
namespace {

SimdTier DetectBestTier() {
#if defined(__x86_64__) || defined(__i386__)
#ifdef HT_KERNELS_AVX512
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return SimdTier::kAvx512;
  }
#endif
#ifdef HT_KERNELS_AVX2
  if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
#endif
#endif
  return SimdTier::kScalar;
}

/// Startup selection: best supported tier, clamped-down HT_SIMD override.
SimdTier SelectStartupTier() {
  const SimdTier best = BestSupportedTier();
  const char* env = std::getenv("HT_SIMD");
  if (env == nullptr || env[0] == '\0') return best;
  SimdTier req;
  if (std::strcmp(env, "scalar") == 0) {
    req = SimdTier::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    req = SimdTier::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    req = SimdTier::kAvx512;
  } else {
    std::fprintf(stderr, "HT_SIMD: unknown tier \"%s\"; using %s\n", env,
                 TierName(best));
    return best;
  }
  if (req > best) {
    std::fprintf(stderr,
                 "HT_SIMD: %s not supported by this CPU/build; using %s\n",
                 env, TierName(best));
    return best;
  }
  return req;
}

/// The startup selection's table; reads HT_SIMD on the first call.
const KernelTable& StartupTable() {
  static const KernelTable& startup = TableForTier(SelectStartupTier());
  return startup;
}

}  // namespace

const char* TierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

SimdTier BestSupportedTier() {
  static const SimdTier best = DetectBestTier();
  return best;
}

bool TierSupported(SimdTier tier) { return tier <= BestSupportedTier(); }

const KernelTable& TableForTier(SimdTier tier) {
  HT_CHECK(TierSupported(tier));
#ifdef HT_KERNELS_AVX512
  if (tier == SimdTier::kAvx512) return Avx512Table();
#endif
#ifdef HT_KERNELS_AVX2
  if (tier == SimdTier::kAvx2) return Avx2Table();
#endif
  return ScalarTable();
}

namespace detail {

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable& SelectActive() {
  const KernelTable* table = &StartupTable();
  const KernelTable* expected = nullptr;
  // A ForceTier that got in first keeps its pin.
  if (!g_active.compare_exchange_strong(expected, table,
                                        std::memory_order_relaxed)) {
    table = expected;
  }
  return *table;
}

}  // namespace detail

void ForceTier(SimdTier tier) {
  detail::g_active.store(&TableForTier(tier), std::memory_order_relaxed);
}

void ClearForcedTier() {
  detail::g_active.store(&StartupTable(), std::memory_order_relaxed);
}

}  // namespace ht::kernels

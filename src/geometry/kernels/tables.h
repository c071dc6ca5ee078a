// Copyright 2026 The HybridTree Authors.
// Internal: per-tier kernel table accessors, linked by dispatch.cc; the
// SIMD tiers also call the scalar table's batch kernels for their tail
// rows. The SIMD tables exist only when CMake found the compiler flags
// (the HT_KERNELS_* definitions are target-wide on ht_geometry).

#pragma once

#include "geometry/kernels/kernels.h"

namespace ht::kernels {

const KernelTable& ScalarTable();
#ifdef HT_KERNELS_AVX2
const KernelTable& Avx2Table();
#endif
#ifdef HT_KERNELS_AVX512
const KernelTable& Avx512Table();
#endif

}  // namespace ht::kernels

/**
 * @file
 * Internal declarations for the runtime-dispatched dense INT8 GEMM
 * tiers and the AVX-512 profile sub-kernel.
 *
 * Each SIMD tier lives in its own translation unit compiled with
 * exactly the ISA it needs (see CMakeLists.txt); this header carries
 * only declarations so including it never instantiates code under a
 * raised ISA. Callers go through dbbGemm() and dbbActiveKernel() in
 * gemm_plan.hh — these symbols are exposed for the dispatcher, the
 * kernel property tests (every tier against gemmReference) and the
 * microbenchmarks. On x86-64 every tier is compiled and cpuid
 * chooses among them; other targets compile the baseline tier only,
 * and the SIMD symbols below are not declared there.
 */

#ifndef S2TA_ARCH_GEMM_KERNELS_HH
#define S2TA_ARCH_GEMM_KERNELS_HH

#include <cstdint>

#include "base/bitmask.hh"

namespace s2ta {

enum class DbbKernelKind;

/**
 * One tier of the functional GEMM. Writes, for every output row i in
 * [row_begin, row_end) and column j < n,
 *
 *     out[i * n + j] = sum over x < k of a[i * k + x] * wt[j * k + x]
 *
 * with INT32 wraparound accumulation, where @p a is the row-major
 * activation matrix and @p wt the transposed (n x k) weights. Every
 * tier is bit-identical to gemmReference: the products are exact
 * and addition mod 2^32 is order-independent.
 */
using DenseGemmRowsFn = void (*)(const int8_t *a, const int8_t *wt,
                                 int k, int n, int row_begin,
                                 int row_end, int32_t *out);

/** Baseline tier (gemm_plan.cc): SSE2 pmaddwd register blocks on
 *  x86-64, portable loops elsewhere. Always available. */
void denseGemmRowsBase(const int8_t *a, const int8_t *wt, int k, int n,
                       int row_begin, int row_end, int32_t *out);

/** The entry point of tier @p kind, bypassing the dispatcher's cap
 *  (the caller checks dbbKernelSupported first). */
DenseGemmRowsFn denseGemmRowsFor(DbbKernelKind kind);

#if defined(__x86_64__)

/** AVX2 tier (gemm_kernels_avx2.cc): vpmovsxbw + vpmaddwd. */
void denseGemmRowsAvx2(const int8_t *a, const int8_t *wt, int k, int n,
                       int row_begin, int row_end, int32_t *out);

/** True when this CPU has AVX2. */
bool dbbAvx2KernelSupportedImpl();

/**
 * AVX-512 tier (gemm_kernels_avx512.cc): one VNNI vpdpbusd per 64
 * INT8 pairs. vpdpbusd is u8 x s8, so the signed dot is recovered
 * exactly as dp(a ^ 0x80, w) - 128 * dp(1, w) mod 2^32.
 */
void denseGemmRowsAvx512(const int8_t *a, const int8_t *wt, int k,
                         int n, int row_begin, int row_end,
                         int32_t *out);

/** True when this CPU has avx512bw + avx512vnni. */
bool dbbAvx512KernelSupportedImpl();

/**
 * VPOPCNTDQ profile derivation (sub-feature of the AVX-512 tier):
 * adds the per-position non-zero counts of one vector of @p nblocks
 * bz == 8 masks into hist[block * 8 + bit] and returns the vector's
 * total mask popcount. The total is vpopcntq over 64-byte loads of
 * the mask array; every group of 8 masks whose 64-position window
 * fits inside @p hist_len is widened by vpmovm2b into the
 * histogram, and trailing blocks fall back to per-bit updates.
 * Bit-identical to the scalar mask loops in
 * OperandProfile::fromMasks.
 */
int64_t dbbProfileVectorAvx512(const Mask8 *masks, int nblocks,
                               int32_t *hist, int hist_len);

/** True when this CPU has avx512vpopcntdq + avx512bw. */
bool dbbVpopcntKernelSupportedImpl();

#endif // __x86_64__

} // namespace s2ta

#endif // S2TA_ARCH_GEMM_KERNELS_HH

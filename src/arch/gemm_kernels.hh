/**
 * @file
 * Internal declarations for the runtime-dispatched dense INT8 GEMM
 * tiers and the AVX-512 profile sub-kernel.
 *
 * Each SIMD tier lives in its own translation unit compiled with
 * exactly the ISA it needs (see S2TA_ENABLE_X86_64_V2/V4 in
 * CMakeLists.txt); this header carries only declarations so
 * including it never instantiates code under a raised ISA. Callers
 * go through dbbGemm() and dbbActiveKernel() in gemm_plan.hh — these
 * symbols are exposed for the dispatcher, the kernel property tests
 * (every compiled-in tier against gemmReference) and the
 * microbenchmarks. When a tier is compiled out (option off, or a
 * non-x86 target) its entry point is an alias of the baseline tier
 * and its probe reports unsupported, so the symbols always link.
 */

#ifndef S2TA_ARCH_GEMM_KERNELS_HH
#define S2TA_ARCH_GEMM_KERNELS_HH

#include <cstdint>

namespace s2ta {

struct DbbBlock;
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

/** AVX2 tier (gemm_kernels_avx2.cc): vpmovsxbw + vpmaddwd. */
void denseGemmRowsAvx2(const int8_t *a, const int8_t *wt, int k, int n,
                       int row_begin, int row_end, int32_t *out);

/** True when the AVX2 tier is compiled in and this CPU has it. */
bool dbbAvx2KernelSupportedImpl();

/**
 * AVX-512 tier (gemm_kernels_avx512.cc): one VNNI vpdpbusd per 64
 * INT8 pairs. vpdpbusd is u8 x s8, so the signed dot is recovered
 * exactly as dp(a ^ 0x80, w) - 128 * dp(1, w) mod 2^32.
 */
void denseGemmRowsAvx512(const int8_t *a, const int8_t *wt, int k,
                         int n, int row_begin, int row_end,
                         int32_t *out);

/** True when the AVX-512 tier is compiled in and this CPU has
 *  avx512bw + avx512vnni. */
bool dbbAvx512KernelSupportedImpl();

/** The entry point of tier @p kind, bypassing the dispatcher's cap
 *  (the caller checks dbbKernelSupported first). */
DenseGemmRowsFn denseGemmRowsFor(DbbKernelKind kind);

/**
 * VPOPCNTDQ profile derivation (sub-feature of the AVX-512 tier):
 * adds the per-position non-zero counts of one encoded vector of
 * bz == 8 blocks into hist[block * 8 + bit] and returns the
 * vector's total mask popcount. Groups of 8 blocks whose full
 * 64-position window fits inside @p hist_len go through the SIMD
 * path (packed-mask vpopcntq for the total, vpmovm2b widening for
 * the histogram); trailing blocks fall back to per-bit updates.
 * Bit-identical to the scalar mask loops in
 * OperandProfile::fromDbb.
 */
int64_t dbbProfileVectorAvx512(const DbbBlock *blocks, int nblocks,
                               int32_t *hist, int hist_len);

/** True when the VPOPCNTDQ profile path is compiled in and this CPU
 *  has avx512vpopcntdq + avx512bw. */
bool dbbVpopcntKernelSupportedImpl();

} // namespace s2ta

#endif // S2TA_ARCH_GEMM_KERNELS_HH

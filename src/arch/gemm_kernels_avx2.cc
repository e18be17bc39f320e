/**
 * @file
 * AVX2 tier of the dense INT8 GEMM: the baseline tier's 2 x 4
 * register blocks, with each 16-byte chunk sign-extended to sixteen
 * INT16 lanes by one vpmovsxbw and contracted by vpmaddwd. Not
 * vpmaddubsw: its INT16 pair sums saturate, which would break
 * exactness. A vpmaddwd lane sums two INT8 products, so it cannot
 * overflow, and the INT32 accumulators wrap exactly like the scalar
 * sum — bit-identical to gemmReference (property-tested in
 * tests/arch/test_gemm_kernels.cc).
 *
 * This translation unit is the only one compiled with AVX2 codegen
 * (see S2TA_ENABLE_X86_64_V2 in CMakeLists.txt). Callers reach it
 * through dbbActiveKernel()'s runtime dispatch. The SIMD branch must
 * not call inline functions from shared headers: a comdat copy
 * compiled here could be kept by the linker for the whole program
 * and break the runtime fallback on older CPUs (gemm_blocked.hh is
 * internal-linkage templates only).
 */

#include "arch/gemm_kernels.hh"

#if defined(S2TA_X86_64_V2) && defined(__AVX2__)
#include <immintrin.h>

#include "arch/gemm_blocked.hh"
#define S2TA_HAVE_SIMD_AVX2 1
#endif

namespace s2ta {

#ifdef S2TA_HAVE_SIMD_AVX2

namespace {

/** 2 A rows x 4 W^T columns per pass (11 of the 16 YMM registers). */
struct Avx2Tile
{
    static constexpr int R = 2;
    static constexpr int C = 4;

    const int8_t *panel;
    int k;
    const int8_t *rows[R] = {};

    Avx2Tile(const int8_t *panel_, int k_, int) : panel(panel_), k(k_)
    {}

    static __m256i
    widen(const int8_t *p)
    {
        return _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }

    static void
    step(__m256i (&acc)[R][C], const int8_t *const *ap,
         const int8_t *const *wp, int x)
    {
        __m256i av[R];
        for (int r = 0; r < R; ++r)
            av[r] = widen(ap[r] + x);
        for (int c = 0; c < C; ++c) {
            const __m256i wv = widen(wp[c] + x);
            for (int r = 0; r < R; ++r)
                acc[r][c] = _mm256_add_epi32(
                    acc[r][c], _mm256_madd_epi16(av[r], wv));
        }
    }

    void
    setRows(const int8_t *const *r)
    {
        for (int i = 0; i < R; ++i)
            rows[i] = r[i];
    }

    void
    block(const int *jc, int32_t *out) const
    {
        const int8_t *cols[C];
        for (int c = 0; c < C; ++c)
            cols[c] = panel + static_cast<size_t>(jc[c]) * k;
        __m256i acc[R][C];
        for (auto &row : acc)
            for (auto &v : row)
                v = _mm256_setzero_si256();
        int x = 0;
        for (; x + 16 <= k; x += 16)
            step(acc, rows, cols, x);
        if (x < k) {
            int8_t abuf[R][16], wbuf[C][16];
            const int8_t *ap[R], *wp[C];
            for (int r = 0; r < R; ++r) {
                padTail<16>(rows[r] + x, k - x, abuf[r]);
                ap[r] = abuf[r];
            }
            for (int c = 0; c < C; ++c) {
                padTail<16>(cols[c] + x, k - x, wbuf[c]);
                wp[c] = wbuf[c];
            }
            step(acc, ap, wp, 0);
        }
        // Transpose-add within each 128-bit half (lane c = partial
        // sum of acc[r][c]), then fold the two halves.
        for (int r = 0; r < R; ++r) {
            const __m256i s01 = _mm256_add_epi32(
                _mm256_unpacklo_epi32(acc[r][0], acc[r][1]),
                _mm256_unpackhi_epi32(acc[r][0], acc[r][1]));
            const __m256i s23 = _mm256_add_epi32(
                _mm256_unpacklo_epi32(acc[r][2], acc[r][3]),
                _mm256_unpackhi_epi32(acc[r][2], acc[r][3]));
            const __m256i s = _mm256_add_epi32(
                _mm256_unpacklo_epi64(s01, s23),
                _mm256_unpackhi_epi64(s01, s23));
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(out + r * C),
                _mm_add_epi32(_mm256_castsi256_si128(s),
                              _mm256_extracti128_si256(s, 1)));
        }
    }
};

} // anonymous namespace

void
denseGemmRowsAvx2(const int8_t *a, const int8_t *wt, int k, int n,
                  int row_begin, int row_end, int32_t *out)
{
    blockedGemmRows<Avx2Tile>(a, wt, k, n, row_begin, row_end, out);
}

bool
dbbAvx2KernelSupportedImpl()
{
    return __builtin_cpu_supports("avx2");
}

#else // !S2TA_HAVE_SIMD_AVX2

// Built without the x86-64-v2 option (or on a target without AVX2
// codegen): keep the symbols so the dispatcher links, but report
// the tier unavailable — dbbActiveKernel() then stays on the
// baseline tier and this alias is never called in anger.
void
denseGemmRowsAvx2(const int8_t *a, const int8_t *wt, int k, int n,
                  int row_begin, int row_end, int32_t *out)
{
    denseGemmRowsBase(a, wt, k, n, row_begin, row_end, out);
}

bool
dbbAvx2KernelSupportedImpl()
{
    return false;
}

#endif // S2TA_HAVE_SIMD_AVX2

} // namespace s2ta

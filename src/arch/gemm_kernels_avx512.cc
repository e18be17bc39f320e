/**
 * @file
 * AVX-512 tier of the dense INT8 GEMM, plus the VPOPCNTDQ profile
 * sub-kernel.
 *
 *  - Dense GEMM (avx512bw + avx512vnni): 4 A rows x 4 W^T columns
 *    per pass, one vpdpbusd per 64 INT8 pairs. vpdpbusd multiplies
 *    u8 x s8, so the signed dot is recovered exactly as
 *    dp(a ^ 0x80, w) - 128 * dp(1, w); the column sums dp(1, w) are
 *    taken once per 64-column panel and shared by every row block.
 *    The K tail is a masked load: a zeroed lane biases to 128 but
 *    meets a zero weight. All arithmetic wraps mod 2^32,
 *    bit-identical to gemmReference.
 *  - Profile derivation (avx512vpopcntdq + avx512bw): per-vector
 *    nnz from vpopcntq over 64-byte loads of the mask array,
 *    per-position histogram updates from vpmovm2b-widened masks.
 *
 * Both are property-tested in tests/arch/test_gemm_kernels.cc.
 *
 * Every x86-64 build compiles this translation unit, and it is the
 * only one compiled with AVX-512 codegen (see CMakeLists.txt). Each
 * sub-kernel probes its own cpuid bits, so a CPU with VNNI but no
 * VPOPCNTDQ still gets the GEMM tier. Like the AVX2 tier, its code
 * must not call inline functions from shared headers: a comdat copy
 * compiled here could be kept by the linker for the whole program
 * and break the runtime fallback on older CPUs.
 */

#include <immintrin.h>

#include <cstring>

#include "arch/gemm_blocked.hh"
#include "arch/gemm_kernels.hh"

namespace s2ta {

namespace {

// maskz forms with all-ones masks below: same instructions as the
// plain variants, but GCC 12's unmasked wrappers expand through the
// _mm*_undefined_* helpers, which -Werror=uninitialized rejects.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;

/** The bytes of p[0, k - x) when fewer than 64 remain, else 64. */
__mmask64
chunkMask(int k, int x)
{
    const int rem = k - x;
    return rem >= 64 ? ~__mmask64{0}
                     : ~__mmask64{0} >> (64 - static_cast<unsigned>(rem));
}

/**
 * 4 A rows x 4 W^T columns per pass: 16 accumulators, 4 biased A
 * chunks and one W chunk (22 of the 32 ZMM registers).
 */
struct Avx512Tile
{
    static constexpr int R = 4;
    static constexpr int C = 4;

    const int8_t *panel;
    int k;
    const int8_t *rows[R] = {};
    /** dp(1, w) of each panel column, for the bias correction. */
    int32_t col_sum[64];

    Avx512Tile(const int8_t *panel_, int k_, int cols)
        : panel(panel_), k(k_)
    {
        const __m512i ones = _mm512_set1_epi8(1);
        for (int c = 0; c < cols; ++c) {
            const int8_t *w = panel + static_cast<size_t>(c) * k;
            __m512i s = _mm512_setzero_si512();
            for (int x = 0; x < k; x += 64)
                s = _mm512_dpbusd_epi32(
                    s, ones,
                    _mm512_maskz_loadu_epi8(chunkMask(k, x), w + x));
            // Store-and-sum: GCC's _mm512_reduce_add_epi32 expands
            // through an _mm256_undefined_si256 the -Werror build
            // rejects. Unsigned, so the sum wraps mod 2^32.
            alignas(64) uint32_t lane[16];
            _mm512_store_si512(lane, s);
            uint32_t sum = 0;
            for (const uint32_t v : lane)
                sum += v;
            col_sum[c] = static_cast<int32_t>(sum);
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
        const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
        const int8_t *cols[C];
        for (int c = 0; c < C; ++c)
            cols[c] = panel + static_cast<size_t>(jc[c]) * k;
        __m512i acc[R][C];
        for (auto &row : acc)
            for (auto &v : row)
                v = _mm512_setzero_si512();
        for (int x = 0; x < k; x += 64) {
            const __mmask64 m = chunkMask(k, x);
            __m512i av[R];
            for (int r = 0; r < R; ++r)
                av[r] = _mm512_xor_si512(
                    _mm512_maskz_loadu_epi8(m, rows[r] + x), bias);
            for (int c = 0; c < C; ++c) {
                const __m512i wv =
                    _mm512_maskz_loadu_epi8(m, cols[c] + x);
                for (int r = 0; r < R; ++r)
                    acc[r][c] = _mm512_dpbusd_epi32(acc[r][c], av[r], wv);
            }
        }
        const __m128i corr = _mm_slli_epi32(
            _mm_setr_epi32(col_sum[jc[0]], col_sum[jc[1]],
                           col_sum[jc[2]], col_sum[jc[3]]),
            7);
        // Transpose-add within each 128-bit lane (lane c = partial
        // sum of acc[r][c]), fold the four lanes, then remove the
        // bias: 128 * dp(1, w) per column.
        for (int r = 0; r < R; ++r) {
            const __m512i s01 = _mm512_add_epi32(
                _mm512_maskz_unpacklo_epi32(kAll16, acc[r][0], acc[r][1]),
                _mm512_maskz_unpackhi_epi32(kAll16, acc[r][0], acc[r][1]));
            const __m512i s23 = _mm512_add_epi32(
                _mm512_maskz_unpacklo_epi32(kAll16, acc[r][2], acc[r][3]),
                _mm512_maskz_unpackhi_epi32(kAll16, acc[r][2], acc[r][3]));
            const __m512i s = _mm512_add_epi32(
                _mm512_maskz_unpacklo_epi64(kAll8, s01, s23),
                _mm512_maskz_unpackhi_epi64(kAll8, s01, s23));
            const __m256i h = _mm256_add_epi32(
                _mm512_maskz_extracti64x4_epi64(kAll8, s, 0),
                _mm512_maskz_extracti64x4_epi64(kAll8, s, 1));
            const __m128i q = _mm_add_epi32(
                _mm256_castsi256_si128(h),
                _mm256_extracti128_si256(h, 1));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(out + r * C),
                             _mm_sub_epi32(q, corr));
        }
    }
};

} // anonymous namespace

void
denseGemmRowsAvx512(const int8_t *a, const int8_t *wt, int k, int n,
                    int row_begin, int row_end, int32_t *out)
{
    blockedGemmRows<Avx512Tile>(a, wt, k, n, row_begin, row_end, out);
}

bool
dbbAvx512KernelSupportedImpl()
{
    return __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vnni");
}

int64_t
dbbProfileVectorAvx512(const Mask8 *masks, int nblocks,
                       int32_t *hist, int hist_len)
{
    // The total: the mask array is contiguous, so each 64-byte load
    // is 64 blocks' masks and one vpopcntq counts them.
    __m512i nnz_acc = _mm512_setzero_si512();
    int b = 0;
    for (; b + 64 <= nblocks; b += 64) {
        nnz_acc = _mm512_add_epi64(
            nnz_acc, _mm512_popcnt_epi64(_mm512_loadu_si512(masks + b)));
    }
    alignas(64) int64_t nnz_lane[8];
    _mm512_store_si512(nnz_lane, nnz_acc);
    int64_t nnz = 0;
    for (const int64_t lane : nnz_lane)
        nnz += lane;
    for (; b < nblocks; ++b)
        nnz += __builtin_popcount(masks[b]);

    // The histogram: only 8-block groups whose full 64-position
    // window fits in it take the SIMD path; K's tail blocks
    // (positions that would index past hist_len) stay on the
    // per-bit loop below.
    int simd_groups = nblocks / 8;
    if (simd_groups > hist_len / 64)
        simd_groups = hist_len / 64;
    for (int g = 0; g < simd_groups; ++g) {
        uint64_t km;
        std::memcpy(&km, masks + g * 8, sizeof(km));
        // Widen the 64 mask bits to 0/-1 bytes, then to 0/-1 INT32
        // lanes, and subtract into the histogram (x - (-1) == x+1).
        const __m512i bytes =
            _mm512_movm_epi8(static_cast<__mmask64>(km));
        // The extract immediates must be literals: a loop variable
        // is a constant only once -O3 unrolls the loop.
        const __m128i quarter[4] = {
            _mm512_maskz_extracti32x4_epi32(kAll8, bytes, 0),
            _mm512_maskz_extracti32x4_epi32(kAll8, bytes, 1),
            _mm512_maskz_extracti32x4_epi32(kAll8, bytes, 2),
            _mm512_maskz_extracti32x4_epi32(kAll8, bytes, 3),
        };
        int32_t *h = hist + g * 64;
        for (int c = 0; c < 4; ++c) {
            const __m512i wide =
                _mm512_maskz_cvtepi8_epi32(kAll16, quarter[c]);
            const __m512i cur = _mm512_loadu_si512(h + c * 16);
            _mm512_storeu_si512(h + c * 16,
                                _mm512_sub_epi32(cur, wide));
        }
    }
    for (b = simd_groups * 8; b < nblocks; ++b) {
        for (unsigned m = masks[b]; m != 0; m &= m - 1)
            ++hist[b * 8 + __builtin_ctz(m)];
    }
    return nnz;
}

bool
dbbVpopcntKernelSupportedImpl()
{
    return __builtin_cpu_supports("avx512vpopcntdq") &&
           __builtin_cpu_supports("avx512bw");
}

} // namespace s2ta

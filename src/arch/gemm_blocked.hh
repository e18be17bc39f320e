/**
 * @file
 * Register-blocked loop nest shared by the dense INT8 GEMM tiers.
 *
 * Each tier's translation unit includes this header and instantiates
 * blockedGemmRows() with its own micro-kernel, so the loop nest is
 * compiled under exactly that unit's ISA. Everything here is a
 * template with internal linkage that calls no shared inline
 * function: a comdat copy built under a raised ISA could otherwise
 * be kept by the linker for the whole program and break the runtime
 * fallback on older CPUs.
 */

#ifndef S2TA_ARCH_GEMM_BLOCKED_HH
#define S2TA_ARCH_GEMM_BLOCKED_HH

#include <cstddef>
#include <cstdint>

namespace s2ta {
namespace {

/**
 * Rows [row_begin, row_end) of the product of the row-major m x k
 * activations @p a and the transposed n x k weights @p wt (the
 * DenseGemmRowsFn contract), in Tile::R x Tile::C output blocks.
 *
 * The columns are walked in panels of 64 W^T rows: a panel stays
 * cache-resident while every row block of the stripe streams past
 * it, and one row block's A rows stay in L1 across the panel.
 * Tile(panel, k, cols) sets up one panel (the AVX-512 tier takes
 * its column sums there); tile.setRows(rows) starts a row block of
 * R A rows (the baseline tier widens them once there); and
 * tile.block(jc, acc) writes the R x C dot products of those rows
 * against the panel columns @p jc into acc (row-major). Edge blocks
 * repeat the last valid row or column and store only the valid
 * outputs, so they run the same SIMD code as full blocks.
 */
template <class Tile>
void
blockedGemmRows(const int8_t *a, const int8_t *wt, int k, int n,
                int row_begin, int row_end, int32_t *out)
{
    constexpr int R = Tile::R;
    constexpr int C = Tile::C;
    constexpr int kPanelCols = 64;
    const size_t ks = static_cast<size_t>(k);
    for (int j0 = 0; j0 < n; j0 += kPanelCols) {
        const int cols = n - j0 < kPanelCols ? n - j0 : kPanelCols;
        Tile tile(wt + static_cast<size_t>(j0) * ks, k, cols);
        for (int i = row_begin; i < row_end; i += R) {
            const int8_t *rows[R] = {};
            for (int r = 0; r < R; ++r) {
                const int ii = i + r < row_end ? i + r : row_end - 1;
                rows[r] = a + static_cast<size_t>(ii) * ks;
            }
            tile.setRows(rows);
            for (int jb = 0; jb < cols; jb += C) {
                int jc[C] = {};
                for (int c = 0; c < C; ++c)
                    jc[c] = jb + c < cols ? jb + c : cols - 1;
                int32_t acc[R * C] = {};
                tile.block(jc, acc);
                for (int r = 0; r < R && i + r < row_end; ++r) {
                    int32_t *orow = out +
                                    static_cast<size_t>(i + r) * n +
                                    j0 + jb;
                    for (int c = 0; c < C && jb + c < cols; ++c)
                        orow[c] = acc[r * C + c];
                }
            }
        }
    }
}

/**
 * The K tail as one zero-padded W-byte chunk: the first @p rem
 * bytes of @p p, then zeros. Zero lanes contribute exact zeros to
 * every tier's contraction.
 */
template <int W>
void
padTail(const int8_t *p, int rem, int8_t *chunk)
{
    for (int t = 0; t < W; ++t)
        chunk[t] = t < rem ? p[t] : 0;
}

} // anonymous namespace
} // namespace s2ta

#endif // S2TA_ARCH_GEMM_BLOCKED_HH

#include "arch/gemm_plan.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "arch/gemm_blocked.hh"
#include "arch/gemm_kernels.hh"
#include "base/thread_pool.hh"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace s2ta {

namespace {

/** Forced dispatch ceiling; Avx512 (the widest tier) = unclamped. */
std::atomic<int> kernel_cap{static_cast<int>(DbbKernelKind::Avx512)};

/** Widest compiled-in tier this CPU supports (cpuid results cannot
 *  change at runtime; memoized). */
DbbKernelKind
widestSupportedKernel()
{
    static const DbbKernelKind kind =
        dbbAvx512KernelSupportedImpl() ? DbbKernelKind::Avx512
        : dbbAvx2KernelSupportedImpl() ? DbbKernelKind::Avx2
                                       : DbbKernelKind::Scalar;
    return kind;
}

#ifdef __SSE2__

/**
 * SSE2 micro-kernel of the baseline tier: 3 A rows x 4 W^T columns
 * per pass. SSE2 has no byte-to-word sign extension, so every
 * 16-byte chunk is split into its even and odd bytes, each
 * sign-extended into INT16 lanes (the same split on both operands,
 * so pmaddwd still pairs a[x] with w[x]). Each chunk is split once:
 * the panel's W^T rows when the tile is made, a row block's A rows
 * in setRows. The inner loop is then pmaddwd and paddd only. A
 * pmaddwd lane sums two INT8 products, at most 2 * 128 * 128, so
 * nothing saturates and the INT32 accumulators wrap exactly like
 * the scalar sum.
 */
class Sse2Tile
{
  public:
    static constexpr int R = 3;
    static constexpr int C = 4;

    Sse2Tile(const int8_t *panel, int k_, int cols)
        : k(k_), chunks((k_ + 15) / 16),
          wsplit(new Half[static_cast<size_t>(cols) * chunks * 2]),
          asplit(new Half[static_cast<size_t>(R) * chunks * 2])
    {
        for (int c = 0; c < cols; ++c)
            splitRow(panel + static_cast<size_t>(c) * k,
                     wsplit.get() + static_cast<size_t>(c) * chunks * 2);
    }

    void
    setRows(const int8_t *const *rows)
    {
        for (int r = 0; r < R; ++r)
            splitRow(rows[r],
                     asplit.get() + static_cast<size_t>(r) * chunks * 2);
    }

    void
    block(const int *jc, int32_t *out) const
    {
        const size_t stride = static_cast<size_t>(chunks) * 2;
        const Half *wc[C];
        for (int c = 0; c < C; ++c)
            wc[c] = wsplit.get() + jc[c] * stride;
        __m128i acc[R][C];
        for (auto &row : acc)
            for (auto &v : row)
                v = _mm_setzero_si128();
        for (int x = 0; x < 2 * chunks; x += 2) {
            for (int c = 0; c < C; ++c) {
                const __m128i we = wc[c][x].v;
                const __m128i wo = wc[c][x + 1].v;
                for (int r = 0; r < R; ++r) {
                    const Half *ar = asplit.get() + r * stride + x;
                    acc[r][c] = _mm_add_epi32(
                        acc[r][c],
                        _mm_add_epi32(_mm_madd_epi16(ar[0].v, we),
                                      _mm_madd_epi16(ar[1].v, wo)));
                }
            }
        }
        // Transpose-add: lane c of row r's result is the horizontal
        // sum of acc[r][c].
        for (int r = 0; r < R; ++r) {
            const __m128i s01 = _mm_add_epi32(
                _mm_unpacklo_epi32(acc[r][0], acc[r][1]),
                _mm_unpackhi_epi32(acc[r][0], acc[r][1]));
            const __m128i s23 = _mm_add_epi32(
                _mm_unpacklo_epi32(acc[r][2], acc[r][3]),
                _mm_unpackhi_epi32(acc[r][2], acc[r][3]));
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(out + r * C),
                _mm_add_epi32(_mm_unpacklo_epi64(s01, s23),
                              _mm_unpackhi_epi64(s01, s23)));
        }
    }

  private:
    /** One register of split INT16 lanes (wrapped: a vector type as
     *  a template argument would lose its alignment attribute). */
    struct Half
    {
        __m128i v;
    };

    /** Split the k bytes at @p p into chunks * 2 halves: even, odd
     *  per chunk, the last chunk zero-padded. */
    void
    splitRow(const int8_t *p, Half *out) const
    {
        for (int x = 0; x < chunks; ++x) {
            __m128i v;
            if (16 * x + 16 <= k) {
                v = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(p + 16 * x));
            } else {
                alignas(16) int8_t tail[16];
                padTail<16>(p + 16 * x, k - 16 * x, tail);
                v = _mm_load_si128(
                    reinterpret_cast<const __m128i *>(tail));
            }
            out[2 * x].v = _mm_srai_epi16(_mm_slli_epi16(v, 8), 8);
            out[2 * x + 1].v = _mm_srai_epi16(v, 8);
        }
    }

    int k;
    int chunks;
    std::unique_ptr<Half[]> wsplit; // panel columns x chunks x 2
    std::unique_ptr<Half[]> asplit; // R rows x chunks x 2
};

using BaseTile = Sse2Tile;

#else // !__SSE2__

/** Portable micro-kernel of the baseline tier (non-x86 builds). */
struct PortableTile
{
    static constexpr int R = 2;
    static constexpr int C = 4;

    const int8_t *panel;
    int k;
    const int8_t *rows[R] = {};

    PortableTile(const int8_t *panel_, int k_, int)
        : panel(panel_), k(k_)
    {}

    void
    setRows(const int8_t *const *r)
    {
        for (int i = 0; i < R; ++i)
            rows[i] = r[i];
    }

    void
    block(const int *jc, int32_t *out) const
    {
        for (int r = 0; r < R; ++r) {
            for (int c = 0; c < C; ++c) {
                const int8_t *w =
                    panel + static_cast<size_t>(jc[c]) * k;
                uint32_t sum = 0; // unsigned: wraps mod 2^32
                for (int x = 0; x < k; ++x)
                    sum += static_cast<uint32_t>(rows[r][x] * w[x]);
                out[r * C + c] = static_cast<int32_t>(sum);
            }
        }
    }
};

using BaseTile = PortableTile;

#endif // __SSE2__

/** W^T of @p p, written into @p wt (n x k), tiled over columns so
 *  the writes stay within a few streams. */
void
transposeWeights(const GemmProblem &p, int8_t *wt)
{
    constexpr int kColTile = 64;
    for (int j0 = 0; j0 < p.n; j0 += kColTile) {
        const int jlim = std::min(p.n, j0 + kColTile);
        for (int kk = 0; kk < p.k; ++kk) {
            const int8_t *row = &p.w[static_cast<size_t>(kk) * p.n];
            for (int j = j0; j < jlim; ++j)
                wt[static_cast<size_t>(j) * p.k + kk] = row[j];
        }
    }
}

/**
 * Run @p rows_fn(row_begin, row_end) over [0, m), split into
 * kStripeRows-row stripes across the pool (or in one serial call
 * when no pool is given). Stripes write disjoint rows, so
 * scheduling order cannot affect the result.
 */
template <typename RowsFn>
void
forRowStripes(int m, ThreadPool *pool, const RowsFn &rows_fn)
{
    // One stripe is several cache tiles: big enough that stripe
    // dispatch overhead stays invisible, small enough that a
    // ResNet-sized GEMM (m ~ 3k) still fans out across many lanes.
    constexpr int64_t kStripeRows = 256;
    if (pool == nullptr) {
        if (m > 0)
            rows_fn(0, m);
        return;
    }
    pool->parallelForStripes(
        m, kStripeRows, [&](int64_t begin, int64_t end) {
            rows_fn(static_cast<int>(begin),
                    static_cast<int>(end));
        });
}

} // anonymous namespace

void
denseGemmRowsBase(const int8_t *a, const int8_t *wt, int k, int n,
                  int row_begin, int row_end, int32_t *out)
{
    blockedGemmRows<BaseTile>(a, wt, k, n, row_begin, row_end, out);
}

DenseGemmRowsFn
denseGemmRowsFor(DbbKernelKind kind)
{
    switch (kind) {
      case DbbKernelKind::Scalar: return denseGemmRowsBase;
      case DbbKernelKind::Avx2:   return denseGemmRowsAvx2;
      case DbbKernelKind::Avx512: return denseGemmRowsAvx512;
    }
    s2ta_panic("unknown kernel kind");
}

const char *
dbbKernelKindName(DbbKernelKind kind)
{
    switch (kind) {
      case DbbKernelKind::Scalar: return "scalar";
      case DbbKernelKind::Avx2:   return "avx2";
      case DbbKernelKind::Avx512: return "avx512";
    }
    s2ta_panic("unknown kernel kind");
}

bool
dbbKernelSupported(DbbKernelKind kind)
{
    return kind <= widestSupportedKernel();
}

DbbKernelKind
dbbActiveKernel()
{
    const auto cap = static_cast<DbbKernelKind>(
        kernel_cap.load(std::memory_order_relaxed));
    const DbbKernelKind widest = widestSupportedKernel();
    return cap < widest ? cap : widest;
}

void
dbbForceKernelCap(DbbKernelKind cap)
{
    kernel_cap.store(static_cast<int>(cap),
                     std::memory_order_relaxed);
}

DbbKernelKind
dbbKernelCap()
{
    return static_cast<DbbKernelKind>(
        kernel_cap.load(std::memory_order_relaxed));
}

bool
dbbProfileSimdEnabled()
{
    static const bool supported = dbbVpopcntKernelSupportedImpl();
    return supported && dbbKernelCap() >= DbbKernelKind::Avx512;
}

void
dbbGemm(const GemmPlan &plan, int32_t *out, ThreadPool *shard_pool)
{
    const GemmProblem &p = plan.problem();
    // A plan without the mirror (built events-only, or hydrated from
    // a mirror-less store image) still computes through the dense
    // kernel, on a transpose made for this call.
    std::vector<int8_t> transposed;
    const int8_t *wt = plan.wgtDenseT();
    if (wt == nullptr) {
        transposed.resize(static_cast<size_t>(p.n) * p.k);
        transposeWeights(p, transposed.data());
        wt = transposed.data();
    }
    const DenseGemmRowsFn rows = denseGemmRowsFor(dbbActiveKernel());
    forRowStripes(p.m, shard_pool, [&](int row_begin, int row_end) {
        rows(p.a.data(), wt, p.k, p.n, row_begin, row_end, out);
    });
}

GemmPlan
GemmPlan::build(const GemmProblem &p, int bz, bool dense_mirror)
{
    s2ta_assert(bz >= 1 && bz <= 8, "block size %d", bz);
    // Encode with the permissive bz/bz spec: a plan caches content,
    // not a density contract; bounds are checked against the masks
    // by checkWeights / checkActivations.
    const DbbSpec all{bz, bz};
    return assemble(p, bz, DbbMatrix::fromActivations(p, all),
                    DbbMatrix::fromWeights(p, all), dense_mirror);
}

GemmPlan
GemmPlan::assemble(const GemmProblem &p, int bz, DbbMatrix act,
                   DbbMatrix wgt, bool dense_mirror)
{
    GemmPlan plan(p);
    plan.blk_bz = bz;
    plan.act_blocks = std::move(act);
    plan.wgt_blocks = std::move(wgt);
    plan.prof = OperandProfile::fromDbb(p, plan.act_blocks,
                                        plan.wgt_blocks);

    if (dense_mirror) {
        plan.wgt_t.resize(static_cast<size_t>(p.n) * p.k);
        transposeWeights(p, plan.wgt_t.data());
    }

    plan.is_encoded = true;
    return plan;
}

GemmPlan
GemmPlan::restore(const GemmProblem &p, Parts parts)
{
    s2ta_assert(parts.bz >= 1 && parts.bz <= 8, "block size %d",
                parts.bz);
    s2ta_assert(parts.act.vectors() == p.m &&
                    parts.wgt.vectors() == p.n,
                "restored encodings (%d act, %d wgt vectors) do not "
                "match %dx%dx%d", parts.act.vectors(),
                parts.wgt.vectors(), p.m, p.k, p.n);
    GemmPlan plan(p);
    plan.blk_bz = parts.bz;
    plan.act_blocks = std::move(parts.act);
    plan.wgt_blocks = std::move(parts.wgt);
    plan.wgt_t = std::move(parts.wgt_t);
    plan.prof = std::move(parts.prof);
    plan.is_encoded = true;
    return plan;
}

GemmPlan
GemmPlan::rebuild(const GemmProblem &p, int bz, DbbMatrix act,
                  DbbMatrix wgt, bool dense_mirror)
{
    s2ta_assert(bz >= 1 && bz <= 8, "block size %d", bz);
    return assemble(p, bz, std::move(act), std::move(wgt),
                    dense_mirror);
}

GemmPlan
GemmPlan::shallow(const GemmProblem &p)
{
    return GemmPlan(p);
}

namespace {

/** Popcount density check shared by both operand validators. */
void
checkBlockDensity(const DbbMatrix &mat, const DbbSpec &spec,
                  const char *kind, const char *vec_name,
                  const char *remedy)
{
    const int nb = mat.blocksPerVector();
    for (int v = 0; v < mat.vectors(); ++v) {
        const DbbBlock *blocks = mat.vectorBlocks(v);
        for (int b = 0; b < nb; ++b) {
            if (maskPopcount(blocks[b].mask) > spec.nnz) {
                s2ta_fatal("%s block (%s %d, block %d) violates %s; "
                           "run %s first", kind, vec_name, v, b,
                           spec.toString().c_str(), remedy);
            }
        }
    }
}

} // anonymous namespace

void
GemmPlan::checkWeights(const DbbSpec &spec) const
{
    s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
    if (wgt_ok_spec.load(std::memory_order_acquire) ==
        encodeSpec(spec))
        return;
    checkBlockDensity(wgt_blocks, spec, "weight", "col",
                      "pruneWeightsDbb");
    wgt_ok_spec.store(encodeSpec(spec), std::memory_order_release);
}

void
GemmPlan::checkActivations(const DbbSpec &spec) const
{
    s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
    if (act_ok_spec.load(std::memory_order_acquire) ==
        encodeSpec(spec))
        return;
    checkBlockDensity(act_blocks, spec, "activation", "row", "DAP");
    act_ok_spec.store(encodeSpec(spec), std::memory_order_release);
}

} // namespace s2ta

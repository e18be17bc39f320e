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

/** Widest tier this CPU supports: every tier is compiled on x86-64,
 *  the baseline alone elsewhere (cpuid results cannot change at
 *  runtime; memoized). */
DbbKernelKind
widestSupportedKernel()
{
#if defined(__x86_64__)
    static const DbbKernelKind kind =
        dbbAvx512KernelSupportedImpl() ? DbbKernelKind::Avx512
        : dbbAvx2KernelSupportedImpl() ? DbbKernelKind::Avx2
                                       : DbbKernelKind::Scalar;
    return kind;
#else
    return DbbKernelKind::Scalar;
#endif
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

/** W^T of rows [k0, k1) x columns [j0, j1) of @p p, written into
 *  @p wt (n x k) byte by byte, tiled over columns so the writes stay
 *  within a few streams. */
void
transposeWeightsScalar(const GemmProblem &p, int8_t *wt, int k0,
                       int k1, int j0, int j1)
{
    constexpr int kColTile = 64;
    for (int jt = j0; jt < j1; jt += kColTile) {
        const int jlim = std::min(j1, jt + kColTile);
        for (int kk = k0; kk < k1; ++kk) {
            const int8_t *row = &p.w[static_cast<size_t>(kk) * p.n];
            for (int j = jt; j < jlim; ++j)
                wt[static_cast<size_t>(j) * p.k + kk] = row[j];
        }
    }
}

#ifdef __SSE2__

/**
 * Transpose one 16 x 16 byte block: row r of the block at @p src
 * (row stride @p src_stride) becomes column r of the block at @p dst
 * (row stride @p dst_stride). Four interleave rounds (bytes, words,
 * dwords, qwords) each double the run of one source column that a
 * register holds, until a register holds a whole column.
 */
inline void
transposeBlock16(const int8_t *src, size_t src_stride, int8_t *dst,
                 size_t dst_stride)
{
    __m128i r[16], t[16];
    for (int i = 0; i < 16; ++i)
        r[i] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i * src_stride));
    // Bytes: t[2i] holds rows 2i, 2i+1 of columns 0-7, t[2i+1] of
    // columns 8-15.
    for (int i = 0; i < 8; ++i) {
        t[2 * i] = _mm_unpacklo_epi8(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm_unpackhi_epi8(r[2 * i], r[2 * i + 1]);
    }
    // Words: r[4q + c] holds rows 4q..4q+3 of columns 4c..4c+3.
    for (int q = 0; q < 4; ++q) {
        const __m128i *a = t + 4 * q;
        r[4 * q] = _mm_unpacklo_epi16(a[0], a[2]);
        r[4 * q + 1] = _mm_unpackhi_epi16(a[0], a[2]);
        r[4 * q + 2] = _mm_unpacklo_epi16(a[1], a[3]);
        r[4 * q + 3] = _mm_unpackhi_epi16(a[1], a[3]);
    }
    // Dwords: t[8h + x] holds rows 8h..8h+7 of columns 2x, 2x+1.
    for (int h = 0; h < 2; ++h) {
        for (int c = 0; c < 4; ++c) {
            const __m128i lo = r[8 * h + c];
            const __m128i hi = r[8 * h + 4 + c];
            t[8 * h + 2 * c] = _mm_unpacklo_epi32(lo, hi);
            t[8 * h + 2 * c + 1] = _mm_unpackhi_epi32(lo, hi);
        }
    }
    // Qwords: rows 0-7 and 8-15 of one column meet in one register.
    for (int x = 0; x < 8; ++x) {
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(dst + (2 * x) * dst_stride),
            _mm_unpacklo_epi64(t[x], t[8 + x]));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(dst + (2 * x + 1) * dst_stride),
            _mm_unpackhi_epi64(t[x], t[8 + x]));
    }
}

#endif // __SSE2__

/**
 * W^T of @p p, written into @p wt (n x k). The 16 x 16 blocks go
 * through the SSE2 block transpose, one 16-column strip of W at a
 * time so each strip's 16 W^T rows are written as sequential streams;
 * the K and N tails (and non-SSE2 builds) take the byte loop.
 */
void
transposeWeights(const GemmProblem &p, int8_t *wt)
{
#ifdef __SSE2__
    const int k16 = p.k & ~15;
    const int n16 = p.n & ~15;
    for (int j0 = 0; j0 < n16; j0 += 16) {
        for (int kk = 0; kk < k16; kk += 16) {
            transposeBlock16(&p.w[static_cast<size_t>(kk) * p.n + j0],
                             static_cast<size_t>(p.n),
                             wt + static_cast<size_t>(j0) * p.k + kk,
                             static_cast<size_t>(p.k));
        }
    }
    transposeWeightsScalar(p, wt, k16, p.k, 0, n16);
    transposeWeightsScalar(p, wt, 0, p.k, n16, p.n);
#else
    transposeWeightsScalar(p, wt, 0, p.k, 0, p.n);
#endif
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
#if defined(__x86_64__)
      case DbbKernelKind::Avx2:   return denseGemmRowsAvx2;
      case DbbKernelKind::Avx512: return denseGemmRowsAvx512;
#else
      default: break; // the SIMD tiers are x86-64 only
#endif
    }
    s2ta_panic("no kernel tier %d on this target",
               static_cast<int>(kind));
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
#if defined(__x86_64__)
    static const bool supported = dbbVpopcntKernelSupportedImpl();
    return supported && dbbKernelCap() >= DbbKernelKind::Avx512;
#else
    return false;
#endif
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
    // A plan caches content, not a density contract: bounds are
    // checked against the masks by checkWeights / checkActivations.
    GemmPlan plan(p);
    plan.blk_bz = bz;
    plan.act_masks = MaskMatrix::fromActivations(p, bz);
    plan.wgt_masks = MaskMatrix::fromWeights(p, bz);
    plan.prof =
        OperandProfile::fromMasks(p, plan.act_masks, plan.wgt_masks);
    if (dense_mirror) {
        plan.wgt_t.resize(static_cast<size_t>(p.n) * p.k);
        transposeWeights(p, plan.wgt_t.data());
    }
    plan.is_encoded = true;
    return plan;
}

GemmPlan
GemmPlan::shallow(const GemmProblem &p)
{
    return GemmPlan(p);
}

namespace {

/** Popcount density check shared by both operand validators. */
void
checkBlockDensity(const MaskMatrix &mat, const DbbSpec &spec,
                  const char *kind, const char *vec_name,
                  const char *remedy)
{
    const int nb = mat.blocksPerVector();
    for (int v = 0; v < mat.vectors(); ++v) {
        const Mask8 *masks = mat.vectorMasks(v);
        for (int b = 0; b < nb; ++b) {
            if (maskPopcount(masks[b]) > spec.nnz) {
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
    checkBlockDensity(wgt_masks, spec, "weight", "col",
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
    checkBlockDensity(act_masks, spec, "activation", "row", "DAP");
    act_ok_spec.store(encodeSpec(spec), std::memory_order_release);
}

} // namespace s2ta

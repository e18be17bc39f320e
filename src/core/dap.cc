#include "core/dap.hh"

#include "core/topk.hh"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace s2ta {

Mask8
dapSelectMask(std::span<const int8_t> block, int nnz)
{
    return topNnzMask(block, nnz);
}

DapUnit::DapUnit(DapConfig cfg_) : cfg(cfg_)
{
    s2ta_assert(cfg.bz >= 1 && cfg.bz <= 8, "bz=%d", cfg.bz);
    s2ta_assert(cfg.max_stages >= 1 && cfg.max_stages <= cfg.bz,
                "max_stages=%d", cfg.max_stages);
}

DapUnit::BlockResult
DapUnit::process(std::span<const int8_t> block, int nnz) const
{
    s2ta_assert(block.size() == static_cast<size_t>(cfg.bz),
                "block size %zu != bz %d", block.size(), cfg.bz);
    s2ta_assert(cfg.supports(nnz), "unsupported NNZ %d", nnz);

    BlockResult res;
    if (nnz == cfg.bz) {
        // Dense bypass: no comparator activity; the mask simply
        // flags the non-zero positions (what dbbEncode would store).
        for (int i = 0; i < cfg.bz; ++i) {
            if (block[static_cast<size_t>(i)] != 0)
                res.mask = maskSet(res.mask, i);
        }
        return res;
    }

    // Cascade of magnitude maxpool stages. Each stage performs a
    // left-biased binary-tree reduction over the elements not yet
    // selected, which is equivalent to a linear argmax scan with
    // strict-greater comparison (lowest index wins ties). Each stage
    // burns BZ-1 comparators regardless of data (Fig. 8).
    for (int stage = 0; stage < nnz; ++stage) {
        res.comparisons += cfg.bz - 1;
        int best = -1;
        int best_mag = 0;
        for (int i = 0; i < cfg.bz; ++i) {
            if (maskTest(res.mask, i))
                continue; // discounted in consecutive maxpools
            const int mag =
                std::abs(static_cast<int>(block[
                    static_cast<size_t>(i)]));
            if (mag > best_mag) {
                best_mag = mag;
                best = i;
            }
        }
        if (best < 0)
            break; // only zeros remain; later stages select nothing
        res.winner_positions.push_back(best);
        res.mask = maskSet(res.mask, best);
    }
    return res;
}

namespace {

/** Integer accumulators of one DAP pass: the L2 sums are divided
 *  once, at the end. */
struct DapSums
{
    DapStats stats;
    int64_t l2_before = 0;
    int64_t l2_after = 0;
};

/**
 * Count (and, when @p out is non-null, prune) the @p len-element
 * block at @p blk under @p bound, element by element. One pass takes
 * the block's non-zero count and its integer sum of squares together.
 * Squares of int8 values are exact integers, so the int64 L2 sums
 * divided once at the end give the same double as summing element
 * magnitudes in double. A block with at most `bound` non-zeros skips
 * the Top-NNZ selection, which would keep exactly its non-zeros.
 */
void
dapBlock(const int8_t *blk, int8_t *out, int len, int bound,
         DapSums &s)
{
    int nz = 0;
    int64_t sq = 0;
    for (int i = 0; i < len; ++i) {
        const int v = blk[i];
        nz += v != 0;
        sq += v * v;
    }
    s.stats.nonzeros_before += nz;
    s.l2_before += sq;
    if (nz <= bound) {
        s.l2_after += sq;
        return;
    }

    const Mask8 keep = topNnzMask(
        std::span<const int8_t>(blk, static_cast<size_t>(len)), bound);
    for (int i = 0; i < len; ++i) {
        if (maskTest(keep, i))
            s.l2_after += blk[i] * blk[i];
    }
    s.stats.nonzeros_dropped += nz - maskPopcount(keep);
    if (out != nullptr)
        applyKeepMask(std::span<int8_t>(out, static_cast<size_t>(len)),
                      keep);
}

#ifdef __SSE2__

/**
 * dapBlock over @p pairs pairs of whole 8-element blocks at @p in,
 * one 16-byte register per pair. The zero count of each half comes
 * from psadbw over the pcmpeqb flags, the squares from pmaddwd on the
 * sign-extended words. A pair whose blocks both meet @p bound only
 * adds to the sums; a pair with an over-bound block goes through
 * dapBlock, block by block.
 */
void
dapBlockPairsSse2(const int8_t *in, int8_t *out, int64_t pairs,
                  int bound, DapSums &s)
{
    // Each pair adds at most 4 * 128^2 = 2^16 to a 32-bit square
    // lane, so the lanes are widened to 64 bits every 2^14 pairs.
    constexpr int64_t kWiden = int64_t{1} << 14;
    const __m128i zero = _mm_setzero_si128();
    const __m128i one = _mm_set1_epi8(1);
    // A block meets the bound when it holds more than 7 - bound
    // zeros. The SAD result's odd dwords are 0 and pass against -1.
    const __m128i min_zeros =
        _mm_set_epi32(-1, 7 - bound, -1, 7 - bound);
    __m128i zeros64 = zero; // zero counts of the compliant pairs
    __m128i sq64 = zero;    // their sums of squares
    int64_t compliant = 0;
    for (int64_t i = 0; i < pairs;) {
        const int64_t stop = std::min(pairs, i + kWiden);
        __m128i sq32 = zero;
        for (; i < stop; ++i) {
            const int8_t *p = in + 16 * i;
            const __m128i v =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
            const __m128i zc = _mm_sad_epu8(
                _mm_and_si128(_mm_cmpeq_epi8(v, zero), one), zero);
            if (_mm_movemask_epi8(_mm_cmpgt_epi32(zc, min_zeros)) !=
                0xFFFF) {
                int8_t *o = out == nullptr ? nullptr : out + 16 * i;
                dapBlock(p, o, 8, bound, s);
                dapBlock(p + 8, o == nullptr ? nullptr : o + 8, 8,
                         bound, s);
                continue;
            }
            const __m128i lo = _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
            const __m128i hi = _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8);
            sq32 = _mm_add_epi32(sq32,
                                 _mm_add_epi32(_mm_madd_epi16(lo, lo),
                                               _mm_madd_epi16(hi, hi)));
            zeros64 = _mm_add_epi64(zeros64, zc);
            ++compliant;
        }
        sq64 = _mm_add_epi64(sq64, _mm_unpacklo_epi32(sq32, zero));
        sq64 = _mm_add_epi64(sq64, _mm_unpackhi_epi32(sq32, zero));
    }
    alignas(16) int64_t zl[2], ql[2];
    _mm_store_si128(reinterpret_cast<__m128i *>(zl), zeros64);
    _mm_store_si128(reinterpret_cast<__m128i *>(ql), sq64);
    s.stats.nonzeros_before += 16 * compliant - (zl[0] + zl[1]);
    s.l2_before += ql[0] + ql[1];
    s.l2_after += ql[0] + ql[1];
}

#endif // __SSE2__

/**
 * Run DAP over contiguous channel vectors of length @p vec_len in
 * @p in, accumulating its statistics. When @p out is non-null (it
 * may alias @p in) each over-bound block's pruned values are written
 * there; compliant blocks are left as they are.
 *
 * Which blocks bypass the cascade and how many comparators the rest
 * burn depend only on the geometry, so those counts are taken in
 * closed form. The per-block data pass runs whole 8-element blocks
 * through SSE2 pairs (where the build has it) and the rest through
 * dapBlock.
 */
DapStats
dapPruneContiguous(const int8_t *in, int8_t *out, int64_t count,
                   int vec_len, int nnz, const DapConfig &cfg)
{
    s2ta_assert(cfg.supports(nnz), "unsupported NNZ %d", nnz);
    s2ta_assert(count % vec_len == 0,
                "buffer %ld not a multiple of vector length %d",
                count, vec_len);

    DapSums s;
    const int bz = cfg.bz;
    const int64_t vectors = count / vec_len;
    const int full = vec_len / bz;
    const int tail = vec_len % bz;
    // A cascaded block of len elements burns len - 1 comparators in
    // each of its bound stages; a bypassed one (dense mode, or a
    // tail no longer than its bound) burns none.
    const auto count_blocks = [&](int len, int64_t n) {
        const int bound = std::min(nnz, len);
        if (nnz == bz || bound >= len) {
            s.stats.bypassed_blocks += n;
        } else {
            s.stats.blocks += n;
            s.stats.comparisons +=
                n * static_cast<int64_t>(bound) * (len - 1);
        }
    };
    count_blocks(bz, vectors * full);
    if (tail > 0)
        count_blocks(tail, vectors);

    // Blocks never straddle vectors, so when vec_len is a multiple of
    // bz the whole buffer is one run of whole blocks.
    const int64_t run_len = tail == 0 ? count : vec_len;
    const int64_t run_full = run_len / bz;
    const int bound = std::min(nnz, bz);
    for (int64_t base = 0; base < count; base += run_len) {
        const int8_t *src = in + base;
        int8_t *dst = out == nullptr ? nullptr : out + base;
        int64_t b = 0;
#ifdef __SSE2__
        if (bz == 8) {
            dapBlockPairsSse2(src, dst, run_full / 2, bound, s);
            b = run_full & ~int64_t{1};
        }
#endif
        const auto dst_at = [&](int64_t off) {
            return dst == nullptr ? nullptr : dst + off;
        };
        for (; b < run_full; ++b)
            dapBlock(src + b * bz, dst_at(b * bz), bz, bound, s);
        if (tail > 0) {
            dapBlock(src + run_full * bz, dst_at(run_full * bz), tail,
                     std::min(nnz, tail), s);
        }
    }
    s.stats.l2_retained =
        s.l2_before > 0 ? static_cast<double>(s.l2_after) /
                              static_cast<double>(s.l2_before)
                        : 1.0;
    return s.stats;
}

} // anonymous namespace

DapStats
dapPruneTensor(Int8Tensor &t, int nnz, const DapConfig &cfg)
{
    s2ta_assert(t.rank() >= 1, "rank-0 tensor");
    return dapPruneContiguous(t.data(), t.data(), t.size(),
                              t.dim(t.rank() - 1), nnz, cfg);
}

DapStats
dapCheckTensor(const Int8Tensor &t, int nnz, const DapConfig &cfg)
{
    s2ta_assert(t.rank() >= 1, "rank-0 tensor");
    return dapPruneContiguous(t.data(), nullptr, t.size(),
                              t.dim(t.rank() - 1), nnz, cfg);
}

DapStats
dapPruneActivations(GemmProblem &p, int nnz, const DapConfig &cfg)
{
    s2ta_assert(p.k % cfg.bz == 0, "K=%d vs bz=%d", p.k, cfg.bz);
    return dapPruneContiguous(p.a.data(), p.a.data(),
                              static_cast<int64_t>(p.a.size()), p.k,
                              nnz, cfg);
}

int
chooseLayerNnz(const Int8Tensor &activations, double min_l2_retention,
               const DapConfig &cfg)
{
    for (int nnz = 1; nnz <= cfg.max_stages; ++nnz) {
        const DapStats st = dapCheckTensor(activations, nnz, cfg);
        if (st.l2_retained >= min_l2_retention)
            return nnz;
    }
    return cfg.bz; // dense bypass
}

} // namespace s2ta

#include "core/dap.hh"

#include "core/topk.hh"

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

/**
 * Run DAP over contiguous channel vectors of length @p vec_len in
 * @p in, accumulating its statistics. When @p out is non-null (it
 * may alias @p in) each over-bound block's pruned values are written
 * there; compliant blocks are left as they are.
 *
 * One pass per block takes its non-zero count and its integer sum of
 * squares together. Squares of int8 values are exact integers, so
 * the int64 L2 sums divided once at the end give the same double as
 * summing element magnitudes in double. A block with at most `bound`
 * non-zeros (always the case for a bypassed one) skips the Top-NNZ
 * selection, which would keep exactly its non-zeros; a cascaded one
 * still pays the comparators.
 */
DapStats
dapPruneContiguous(const int8_t *in, int8_t *out, int64_t count,
                   int vec_len, int nnz, const DapConfig &cfg)
{
    s2ta_assert(cfg.supports(nnz), "unsupported NNZ %d", nnz);
    s2ta_assert(count % vec_len == 0,
                "buffer %ld not a multiple of vector length %d",
                count, vec_len);

    DapStats stats;
    int64_t l2_before = 0, l2_after = 0;
    const bool bypass = (nnz == cfg.bz);

    for (int64_t base = 0; base < count; base += vec_len) {
        for (int off = 0; off < vec_len; off += cfg.bz) {
            const int len = std::min(cfg.bz, vec_len - off);
            const int bound = std::min(nnz, len);
            const int8_t *blk = in + base + off;

            int nz = 0;
            int64_t sq = 0;
            for (int i = 0; i < len; ++i) {
                const int v = blk[i];
                nz += v != 0;
                sq += v * v;
            }
            stats.nonzeros_before += nz;
            l2_before += sq;

            if (bypass || bound >= len) {
                ++stats.bypassed_blocks;
            } else {
                ++stats.blocks;
                stats.comparisons +=
                    static_cast<int64_t>(bound) * (len - 1);
            }
            if (nz <= bound) {
                l2_after += sq;
                continue;
            }

            const Mask8 keep = topNnzMask(
                std::span<const int8_t>(blk, static_cast<size_t>(len)),
                bound);
            for (int i = 0; i < len; ++i) {
                if (maskTest(keep, i))
                    l2_after += blk[i] * blk[i];
            }
            stats.nonzeros_dropped += nz - maskPopcount(keep);
            if (out != nullptr) {
                applyKeepMask(std::span<int8_t>(out + base + off,
                                                static_cast<size_t>(len)),
                              keep);
            }
        }
    }
    stats.l2_retained =
        l2_before > 0 ? static_cast<double>(l2_after) /
                            static_cast<double>(l2_before)
                      : 1.0;
    return stats;
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

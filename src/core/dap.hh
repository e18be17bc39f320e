/**
 * @file
 * Dynamic Activation Pruning (DAP, paper Sec. 5.1 and 6.2, Fig. 8).
 *
 * Activations are produced at run time, so the A-DBB density bound is
 * enforced in hardware by a DAP array sitting between the MCU/DMA and
 * the activation SRAM: cascaded magnitude-maxpool stages select the
 * Top-NNZ elements of each BZ-block. The stage count is capped at 5,
 * so supported A-DBB ratios are 1/8 .. 5/8 plus a dense (8/8) bypass.
 *
 * Two implementations are provided and tested against each other:
 *  - dapSelectMask(): the software reference (Top-NNZ by magnitude);
 *  - DapUnit: a stage-by-stage model of the comparator cascade that
 *    also counts comparator operations for the energy model.
 */

#ifndef S2TA_CORE_DAP_HH
#define S2TA_CORE_DAP_HH

#include <vector>

#include "core/dbb.hh"
#include "tensor/tensor.hh"

namespace s2ta {

/** Static configuration of the DAP hardware array. */
struct DapConfig
{
    /** Block size; the shipped design fixes BZ = 8 (Sec. 6.2). */
    int bz = 8;
    /** Cascaded maxpool stages; the paper caps this at 5. */
    int max_stages = 5;

    /** A-DBB NNZ values this hardware can enforce (plus bypass). */
    bool
    supports(int nnz) const
    {
        return (nnz >= 1 && nnz <= max_stages) || nnz == bz;
    }
};

/** Counters produced while DAP processes a tensor. */
struct DapStats
{
    /** Blocks pushed through the comparator cascade. */
    int64_t blocks = 0;
    /** Blocks that bypassed the cascade (dense 8/8 mode). */
    int64_t bypassed_blocks = 0;
    /** Total 8-bit magnitude comparisons performed. */
    int64_t comparisons = 0;
    /** Non-zero elements zeroed by the density bound. */
    int64_t nonzeros_dropped = 0;
    /** Non-zero elements before pruning. */
    int64_t nonzeros_before = 0;
    /** Activation L2 energy retained, in [0, 1]. */
    double l2_retained = 1.0;
};

/**
 * Software reference: positional mask of the Top-NNZ magnitude
 * elements (lowest index wins ties; zeros never selected).
 */
Mask8 dapSelectMask(std::span<const int8_t> block, int nnz);

/**
 * Cycle-level model of one DAP unit (Fig. 8): a cascade of magnitude
 * maxpool stages, each built from BZ-1 comparators. Guaranteed to
 * produce the same mask as dapSelectMask(); additionally reports the
 * winner order and comparator activity.
 */
class DapUnit
{
  public:
    explicit DapUnit(DapConfig cfg = DapConfig{});

    /** Result of pushing one block through the cascade. */
    struct BlockResult
    {
        /** Positions selected, in stage (descending-magnitude)
         *  order; may be shorter than nnz if the block ran out of
         *  non-zeros. */
        std::vector<int> winner_positions;
        /** Final keep mask (union of winners). */
        Mask8 mask = 0;
        /** Comparator operations consumed. */
        int comparisons = 0;
    };

    /**
     * Run the cascade for an @p nnz bound (1..max_stages). Dense
     * bypass (nnz == bz) returns the trivial all-nonzero mask with
     * zero comparisons.
     */
    BlockResult process(std::span<const int8_t> block, int nnz) const;

    const DapConfig &config() const { return cfg; }

  private:
    DapConfig cfg;
};

/**
 * Prune an activation tensor in place along its channel (innermost)
 * dimension with an @p nnz bound per block, as the DAP array does
 * when activations are written to SRAM. Partial tail blocks of
 * r < bz elements use the bound min(nnz, r).
 */
DapStats dapPruneTensor(Int8Tensor &t, int nnz,
                        const DapConfig &cfg = DapConfig{});

/**
 * The statistics dapPruneTensor() would report for @p t, without
 * modifying it. Use it where only the counters are needed, such as
 * checking that an input already satisfies its declared bound
 * (nonzeros_dropped == 0).
 */
DapStats dapCheckTensor(const Int8Tensor &t, int nnz,
                        const DapConfig &cfg = DapConfig{});

/** GEMM-level variant for synthetic microbenchmark operands. */
DapStats dapPruneActivations(GemmProblem &p, int nnz,
                             const DapConfig &cfg = DapConfig{});

/**
 * Per-layer A-DBB density auto-tuning (paper Sec. 5.2: density is
 * tuned per layer, from 8/8 in early layers down to 2/8 late).
 *
 * Chooses the smallest supported NNZ whose Top-NNZ pruning retains at
 * least @p min_l2_retention of the activation L2 energy; falls back
 * to the dense bypass when even NNZ = max_stages cannot meet it.
 */
int chooseLayerNnz(const Int8Tensor &activations,
                   double min_l2_retention = 0.98,
                   const DapConfig &cfg = DapConfig{});

} // namespace s2ta

#endif // S2TA_CORE_DAP_HH

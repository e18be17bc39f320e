/**
 * @file
 * Abstract cycle-level array model and its factory.
 *
 * Contract shared by all architectures (DESIGN.md Sec. 3):
 *  - run() returns exact cycle and event counts for the given GEMM;
 *  - when RunOptions::compute_output is set, the model also computes
 *    the INT32 result *through its own datapath steering logic*
 *    (e.g. DBB mask/rank muxing), which must match gemmReference()
 *    bit for bit;
 *  - operands must already satisfy the config's density bounds
 *    (prune with core/weight_pruner.hh or core/dap.hh first);
 *    checkOperands() verifies this.
 */

#ifndef S2TA_ARCH_ARRAY_MODEL_HH
#define S2TA_ARCH_ARRAY_MODEL_HH

#include <memory>
#include <vector>

#include "arch/array_config.hh"
#include "arch/event_counts.hh"
#include "base/random.hh"
#include "base/thread_pool.hh"
#include "tensor/gemm.hh"

namespace s2ta {

class GemmPlan;
class PlanCache;

/**
 * Which simulation engine executes the run.
 *
 * Both engines produce bitwise-identical events and outputs; DbbFast
 * is the default and exploits the DBB format itself (event counts
 * from the cached block masks, outputs from one register-blocked
 * dense INT8 GEMM), while Scalar preserves the original per-element
 * loops as a reference and as the baseline for
 * bench_engine_throughput.
 */
enum class EngineKind
{
    /** Legacy per-element loops over the dense operands. */
    Scalar,
    /** Mask-derived events and the dense GEMM over a cached plan. */
    DbbFast,
};

/** Per-run options. */
struct RunOptions
{
    /** Compute the functional INT32 output (slower; exact). */
    bool compute_output = true;
    /** Verify the operands satisfy the config's density bounds
     *  before simulating (on in tests, off in benches). */
    bool validate_operands = true;
    /** Simulation engine; results are engine-independent. */
    EngineKind engine = EngineKind::DbbFast;
    /** Seed for SMT queue-timing sampling (deterministic). */
    uint64_t seed = 0xC0FFEE;
    /** PEs sampled per tile for SMT timing. */
    int smt_sample_pes = 192;
    /** Tiles simulated for SMT timing (mean reused for the rest). */
    int smt_sample_tiles = 6;
    /**
     * Cross-run plan cache: when set (and the engine is not
     * Scalar), run(GemmProblem) reuses the cached DBB encoding of
     * identical operands instead of re-encoding — one encode per
     * workload across a whole architecture sweep. Results are
     * bitwise identical with or without the cache. Not owned.
     */
    PlanCache *plan_cache = nullptr;
    /**
     * Intra-GEMM tile-stripe sharding: when set, the functional
     * kernels split the output tile grid into row stripes across
     * this pool's lanes, the per-PE tile-grid event loops of the
     * S2TA models shard the same way for large grids
     * (ArrayModel::sumTileGrid), and the SMT queue-timing loop fans
     * its sampled tiles across the pool after a serial RNG
     * pre-draw. Every path is bitwise identical to serial at any
     * lane count. Not owned; nullptr = serial.
     */
    ThreadPool *shard_pool = nullptr;
};

/** Result of simulating one GEMM on an array. */
struct GemmRun
{
    EventCounts events;
    /** Row-major m x n INT32 result; empty if not requested. */
    std::vector<int32_t> output;

    /** Dense-equivalent MACs per cycle, in [0, totalMacs]. */
    double
    effectiveMacsPerCycle() const
    {
        return events.cycles == 0
                   ? 0.0
                   : static_cast<double>(events.logical_macs) /
                         static_cast<double>(events.cycles);
    }
};

/**
 * Pre-computed non-zero structure of a GEMM's operands.
 *
 * All architecture-independent event totals reduce to closed forms
 * over these counts; e.g. the number of position-matched non-zero
 * products is sum_k actNzAtK[k] * wgtNzAtK[k], so no O(m*k*n) sweep
 * is ever needed for event accounting.
 */
struct OperandProfile
{
    int m = 0, k = 0, n = 0;
    /** Non-zero count of each activation row (length m). */
    std::vector<int32_t> row_nz;
    /** Non-zero count of each weight column (length n). */
    std::vector<int32_t> col_nz;
    /** #rows with a non-zero activation at position kk (length k). */
    std::vector<int32_t> act_nz_at_k;
    /** #cols with a non-zero weight at position kk (length k). */
    std::vector<int32_t> wgt_nz_at_k;
    int64_t act_nnz = 0;
    int64_t wgt_nnz = 0;
    /** Total (i,j,kk) triples with both operands non-zero. */
    int64_t matched_products = 0;

    /** Reference construction: dense O(m*k + k*n) scan. */
    static OperandProfile build(const GemmProblem &p);

    /**
     * Fast construction from cached DBB encodings: per-position
     * counts come from mask bit loops (O(nnz)) and per-vector counts
     * from block popcounts. Bit-identical to build().
     */
    static OperandProfile fromDbb(const GemmProblem &p,
                                  const DbbMatrix &act,
                                  const DbbMatrix &wgt);
};

/** Base class for all cycle-level array models. */
class ArrayModel
{
  public:
    virtual ~ArrayModel() = default;

    const ArrayConfig &config() const { return cfg; }

    /**
     * Simulate one GEMM.
     * Fatal if the operands violate the config's density bounds.
     */
    GemmRun run(const GemmProblem &p,
                const RunOptions &opt = RunOptions{}) const;

    /**
     * Simulate one GEMM from a pre-built plan. The plan's encodings
     * and profile are reused as-is, so a caller comparing several
     * architectures on the same operands pays the encoding cost
     * once. The plan must be encoded unless opt.engine is Scalar.
     */
    GemmRun run(const GemmPlan &plan,
                const RunOptions &opt = RunOptions{}) const;

    /**
     * Verify the operands satisfy this architecture's requirements
     * (K multiple of BZ for DBB kinds, density bounds respected).
     * Validates in place over operand rows; no block copies.
     */
    void checkOperands(const GemmProblem &p) const;

    /** Same contract, from a plan's cached masks (popcount test). */
    void checkPlan(const GemmPlan &plan) const;

    /**
     * Tile grids at or above this many tiles shard their per-tile
     * event loops across RunOptions::shard_pool (below it, stripe
     * dispatch would cost more than the loop). Public so tests and
     * benches can construct grids on either side of the cutover.
     */
    static constexpr int64_t kShardTileThreshold = 1024;

  protected:
    explicit ArrayModel(ArrayConfig cfg_);

    /** Architecture-specific simulation. */
    virtual void simulate(const GemmPlan &plan, const RunOptions &opt,
                          GemmRun &out) const = 0;

    /** True when this run executes the legacy scalar engine (by
     *  request, or because the plan carries no encodings). */
    static bool usesScalarEngine(const GemmPlan &plan,
                                 const RunOptions &opt);

    /**
     * Operand profile for this run: the scalar engine rebuilds it
     * with the reference dense scan, the fast engine takes the
     * plan's mask-derived copy. Both are bit-identical.
     */
    static OperandProfile profileFor(const GemmPlan &plan,
                                     const RunOptions &opt);

    /**
     * Functional output for architectures whose datapath sums in
     * reference order: gemmReference on the scalar engine, dbbGemm
     * (tile-stripe sharded over opt.shard_pool when set) on the
     * fast engine.
     */
    static void referenceOutput(const GemmPlan &plan,
                                const RunOptions &opt, GemmRun &out);

    /** Tiles needed along the output-row dimension. */
    int rowTiles(int m) const;
    /** Tiles needed along the output-column dimension. */
    int colTiles(int n) const;

    /**
     * Output tiling with folding for skinny GEMMs.
     *
     * A batch-1 FC layer has a single output row and a depthwise
     * group a single output column; a plain output-stationary
     * mapping would idle almost the whole array on either. The
     * mapper folds the idle dimension: with m at most half the tile
     * height, activation rows are broadcast to tileRows/m row
     * groups, each accumulating a different column stripe (one pass
     * covers eff_cols columns; this is why FC ends up memory- not
     * compute-bound, Sec. 8.3). Symmetrically, with n at most half
     * the tile width, weight columns are broadcast to tileCols/n
     * column groups, each processing a different row stripe (the
     * depthwise mapping).
     */
    struct TileGrid
    {
        int row_tiles = 1;
        int col_tiles = 1;
        /** Output rows covered per pass (>= tileRows if folded). */
        int eff_rows = 1;
        /** Output columns covered per pass. */
        int eff_cols = 1;

        int64_t
        tiles() const
        {
            return static_cast<int64_t>(row_tiles) * col_tiles;
        }
    };

    TileGrid tileGrid(int m, int n) const;

    /**
     * Sum @p tile_fn(trow, tcol) over the whole tile grid. Large
     * grids (>= kShardTileThreshold tiles) with a pool split the
     * tile rows into stripes with one partial accumulator per
     * stripe, reduced in stripe order afterwards; stripes own
     * disjoint rows and INT64 wrapping addition is
     * order-independent, so the result is bitwise identical to the
     * serial double loop at any lane count (and with the pool off).
     */
    template <typename TileFn>
    static int64_t
    sumTileGrid(const TileGrid &grid, ThreadPool *pool,
                const TileFn &tile_fn)
    {
        if (pool == nullptr || grid.tiles() < kShardTileThreshold) {
            int64_t sum = 0;
            for (int trow = 0; trow < grid.row_tiles; ++trow)
                for (int tcol = 0; tcol < grid.col_tiles; ++tcol)
                    sum += tile_fn(trow, tcol);
            return sum;
        }
        constexpr int64_t kStripeTileRows = 8;
        const int64_t stripes =
            (grid.row_tiles + kStripeTileRows - 1) /
            kStripeTileRows;
        std::vector<int64_t> partial(static_cast<size_t>(stripes),
                                     0);
        pool->parallelForStripes(
            grid.row_tiles, kStripeTileRows,
            [&](int64_t begin, int64_t end) {
                int64_t sum = 0;
                for (int64_t trow = begin; trow < end; ++trow)
                    for (int tcol = 0; tcol < grid.col_tiles;
                         ++tcol)
                        sum += tile_fn(static_cast<int>(trow),
                                       tcol);
                partial[static_cast<size_t>(begin /
                                            kStripeTileRows)] = sum;
            });
        int64_t sum = 0;
        for (int64_t s = 0; s < stripes; ++s)
            sum += partial[static_cast<size_t>(s)];
        return sum;
    }

    ArrayConfig cfg;
};

/** Instantiate the model matching @p cfg. */
std::unique_ptr<ArrayModel> makeArrayModel(const ArrayConfig &cfg);

} // namespace s2ta

#endif // S2TA_ARCH_ARRAY_MODEL_HH

/**
 * @file
 * Pre-built execution plan for one GEMM.
 *
 * A plan holds what every consumer of one GEMM reads, derived once:
 * the DBB positional bitmask of every block of both operands
 * (MaskMatrix, one byte per block, built in one SSE2 pass per
 * operand), the OperandProfile derived from those masks, and — when
 * the plan computes outputs — the transposed dense weights (built in
 * SSE2 16 x 16 byte blocks, a byte loop for the K and N tails). The
 * split is SCNN's: masks are the sparse form the event models, the
 * SMT sampler and the density checks read, and dense bytes are what
 * the arithmetic reads (dbbGemm contracts the dense activation rows
 * against the transposed weights). The DBB values themselves never
 * enter a plan; the scalar oracle engines encode their own.
 * Every architecture model consumes the same plan, so nothing is
 * re-derived inside simulate() and Accelerator::runLayer reuses one
 * plan across the whole tile grid.
 *
 * A plan borrows the GemmProblem it was built from; the problem must
 * outlive the plan. Plans are immutable after construction apart
 * from a small validation memo, which is atomic so one plan can be
 * shared across concurrent consumers: sweep lanes (PlanCache hands
 * the same plan to every design point under comparison) and
 * serving streams (every request re-sending a workload simulates
 * from the same cached plan). Batched workloads need nothing
 * special here — batch > 1 only grows the problem's M axis.
 */

#ifndef S2TA_ARCH_GEMM_PLAN_HH
#define S2TA_ARCH_GEMM_PLAN_HH

#include <atomic>

#include "arch/array_model.hh"
#include "core/dbb.hh"

namespace s2ta {

class GemmPlan;
class ThreadPool;

/**
 * Tier of the dense INT8 GEMM that dbbGemm dispatches to. Every tier
 * runs the same register-blocked contraction of dense A against the
 * plan's W^T mirror and is bit-identical to gemmReference (products
 * are exact; INT32 wraparound addition is order-independent); they
 * differ only in the ISA of the micro-kernel.
 */
enum class DbbKernelKind
{
    /** The build's baseline ISA: SSE2 pmaddwd blocks on x86-64,
     *  portable loops elsewhere. Always available. */
    Scalar,
    /** vpmovsxbw + vpmaddwd blocks (AVX2). Compiled on every x86-64
     *  build; dispatched when cpuid reports AVX2. */
    Avx2,
    /** VNNI vpdpbusd blocks (AVX512BW+VNNI), with the VPOPCNTDQ
     *  profile derivation as a sub-feature. Compiled on every x86-64
     *  build; dispatched when cpuid reports both features. */
    Avx512,
};

/** Canonical lower-case tier name ("scalar", "avx2", "avx512") —
 *  the value bench JSON records as simd_kernel. */
const char *dbbKernelKindName(DbbKernelKind kind);

/** True when tier @p kind is compiled for this target (every tier on
 *  x86-64, Scalar elsewhere) and this CPU supports it. */
bool dbbKernelSupported(DbbKernelKind kind);

/** The tier dbbGemm will actually use: the widest tier this CPU
 *  supports, clamped to the forced cap (dbbForceKernelCap). */
DbbKernelKind dbbActiveKernel();

/**
 * Clamp runtime dispatch to at most @p cap (Avx512, the default,
 * means no clamp — dispatch picks the widest supported tier). The
 * cap pins *every* SIMD decision: capping below Avx512 also disables
 * the VPOPCNTDQ profile derivation, so e.g. a forced "avx2" run
 * executes zero AVX-512 instructions anywhere. Used by the --simd
 * bench flag and by the tier-equivalence tests; thread-safe.
 */
void dbbForceKernelCap(DbbKernelKind cap);

/** The currently forced cap (Avx512 = unclamped). */
DbbKernelKind dbbKernelCap();

/** True when OperandProfile::fromMasks may use the AVX-512 VPOPCNTDQ
 *  derivation (x86-64, CPU support, cap not below Avx512). */
bool dbbProfileSimdEnabled();

/**
 * Functional GEMM of a plan: one dense INT8 contraction of the
 * activation rows against the plan's transposed weight mirror, in
 * register blocks (several A rows x several W^T columns per pass,
 * each loaded chunk widened once). The masks never steer the
 * arithmetic: they feed the event models, which is where the DBB
 * datapath (DP4M8 steering, activation muxing) is simulated; the
 * host computes the same exact INT32 result faster by multiplying
 * the zeros than by gathering around them. A plan without the
 * mirror gets a transpose made for the call. The result is
 * bit-identical to gemmReference. Writes the row-major m x n result.
 *
 * When @p shard_pool is non-null the output is split into row
 * stripes dispatched across the pool's lanes; stripes write
 * disjoint output rows with unchanged per-element arithmetic, so the
 * result is bitwise identical to the serial run at every thread
 * count (this is how a single big GEMM stays parallel when the
 * layer/group fan-out is 1).
 */
void dbbGemm(const GemmPlan &plan, int32_t *out,
             ThreadPool *shard_pool = nullptr);

class GemmPlan
{
  public:
    /**
     * Build the masks of both operands of @p p (one pass each) and
     * derive the profile from them. @p bz is the block size; K need
     * not be a multiple (tail blocks are zero-padded).
     * @p dense_mirror additionally caches the transposed dense
     * weights dbbGemm contracts against; skip it for events-only
     * runs that never compute an output.
     */
    static GemmPlan build(const GemmProblem &p, int bz = 8,
                          bool dense_mirror = true);

    /**
     * Wrap @p p without deriving anything: the legacy scalar engine
     * runs straight off the dense operands.
     */
    static GemmPlan shallow(const GemmProblem &p);

    const GemmProblem &problem() const { return *prob; }
    int bz() const { return blk_bz; }
    bool encoded() const { return is_encoded; }

    /** Activation masks (M vectors of ceil(K/bz) blocks). */
    const MaskMatrix &
    act() const
    {
        s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
        return act_masks;
    }

    /** Weight masks (N vectors of ceil(K/bz) blocks). */
    const MaskMatrix &
    wgt() const
    {
        s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
        return wgt_masks;
    }

    /** Mask-derived operand profile (only on encoded plans). */
    const OperandProfile &
    profile() const
    {
        s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
        return prof;
    }

    /**
     * Dense transposed weight mirror (N x K): row j holds the K
     * elements of weight column j contiguously, feeding dbbGemm's
     * contraction. Weights are static, so this is staged once per
     * plan: an SSE2 16 x 16 byte block transpose in the baseline ISA
     * (every x86-64 build), with a byte loop for the K and N tails
     * and on other targets. Its bytes do not depend on how it was
     * built, so store images and spill entries carry it unchanged.
     * Null when the plan was built without it.
     */
    const int8_t *
    wgtDenseT() const
    {
        return wgt_t.empty() ? nullptr : wgt_t.data();
    }

    /** Mask test: activation (i, kk) non-zero. */
    bool
    actNonZero(int i, int kk) const
    {
        return act_masks.nonZeroAt(i, kk);
    }

    /** Mask test: weight (kk, j) non-zero. */
    bool
    wgtNonZero(int kk, int j) const
    {
        return wgt_masks.nonZeroAt(j, kk);
    }

    /**
     * Verify every weight block satisfies @p spec via its mask
     * popcount; fatal on violation. Repeat calls with the same
     * spec are memoized; the memo is atomic and re-validation by a
     * racing lane is idempotent, so concurrent consumers of a
     * cached plan may all call this.
     */
    void checkWeights(const DbbSpec &spec) const;

    /** Same contract for the activation operand. */
    void checkActivations(const DbbSpec &spec) const;

    // Movable (the memo atomics need explicit transfer); plans are
    // heavyweight, so copies stay disallowed — share via PlanCache.
    GemmPlan(GemmPlan &&o) noexcept
        : prob(o.prob), blk_bz(o.blk_bz), is_encoded(o.is_encoded),
          act_masks(std::move(o.act_masks)),
          wgt_masks(std::move(o.wgt_masks)),
          wgt_t(std::move(o.wgt_t)), prof(std::move(o.prof)),
          wgt_ok_spec(o.wgt_ok_spec.load()),
          act_ok_spec(o.act_ok_spec.load())
    {}

    GemmPlan &
    operator=(GemmPlan &&o) noexcept
    {
        prob = o.prob;
        blk_bz = o.blk_bz;
        is_encoded = o.is_encoded;
        act_masks = std::move(o.act_masks);
        wgt_masks = std::move(o.wgt_masks);
        wgt_t = std::move(o.wgt_t);
        prof = std::move(o.prof);
        wgt_ok_spec.store(o.wgt_ok_spec.load());
        act_ok_spec.store(o.act_ok_spec.load());
        return *this;
    }

    GemmPlan(const GemmPlan &) = delete;
    GemmPlan &operator=(const GemmPlan &) = delete;

  private:
    explicit GemmPlan(const GemmProblem &p) : prob(&p) {}

    /** Pack a spec into a non-zero memo word (nnz >= 1 always). */
    static uint16_t
    encodeSpec(const DbbSpec &spec)
    {
        return static_cast<uint16_t>(spec.nnz |
                                     (spec.bz << 8));
    }

    const GemmProblem *prob;
    int blk_bz = 8;
    bool is_encoded = false;
    MaskMatrix act_masks;
    MaskMatrix wgt_masks;
    std::vector<int8_t> wgt_t;
    OperandProfile prof;

    // Last spec each operand was verified against (0 = none).
    // Atomic so a cached plan shared across sweep lanes can be
    // validated concurrently; re-validation by a racing lane is
    // idempotent.
    mutable std::atomic<uint16_t> wgt_ok_spec{0};
    mutable std::atomic<uint16_t> act_ok_spec{0};
};

} // namespace s2ta

#endif // S2TA_ARCH_GEMM_PLAN_HH

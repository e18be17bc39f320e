/**
 * @file
 * Pre-encoded execution plan for one GEMM.
 *
 * The DBB-native engine exploits the simulator's own sparse format:
 * both operands are encoded into DbbMatrix form exactly once, the
 * OperandProfile is derived from the block masks (O(nnz) bit loops
 * instead of an O(M*K + K*N) dense scan), and density validation is
 * a popcount test per block. Every architecture model consumes the
 * same plan, so nothing is re-encoded inside simulate() and
 * Accelerator::runLayer reuses one plan across the whole tile grid.
 * The split is SCNN's: masks are the sparse form the event models
 * read, and dense bytes are what the arithmetic reads — a plan that
 * computes outputs also keeps the transposed dense weights, which
 * dbbGemm contracts against the dense activation rows.
 *
 * A plan borrows the GemmProblem it was built from; the problem must
 * outlive the plan. Plans are immutable after construction apart
 * from a small validation memo, which is atomic so one plan can be
 * shared across concurrent consumers: sweep lanes (PlanCache hands
 * the same encoding to every design point under comparison) and
 * serving streams (every request re-sending a workload simulates
 * from the same cached encoding). Batched workloads need nothing
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
    /** vpmovsxbw + vpmaddwd blocks (AVX2, the x86-64-v2 build). */
    Avx2,
    /** VNNI vpdpbusd blocks (AVX512BW+VNNI, the x86-64-v4 build),
     *  with the VPOPCNTDQ profile derivation as a sub-feature. */
    Avx512,
};

/** Canonical lower-case tier name ("scalar", "avx2", "avx512") —
 *  the value bench JSON records as simd_kernel. */
const char *dbbKernelKindName(DbbKernelKind kind);

/** True when tier @p kind is compiled in and this CPU supports it. */
bool dbbKernelSupported(DbbKernelKind kind);

/** The tier dbbGemm will actually use: the widest compiled-in tier
 *  this CPU supports, clamped to the forced cap (dbbForceKernelCap). */
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

/** True when OperandProfile::fromDbb may use the AVX-512 VPOPCNTDQ
 *  derivation (compiled in, CPU support, cap not below Avx512). */
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
     * Encode both operands of @p p (one sequential pass each, all
     * non-zeros kept) and derive the mask-based profile. @p bz is
     * the block size; K need not be a multiple (tail blocks are
     * zero-padded losslessly). @p dense_mirror additionally caches
     * the transposed dense weights dbbGemm contracts against; skip
     * it for events-only runs that never compute an output.
     */
    static GemmPlan build(const GemmProblem &p, int bz = 8,
                          bool dense_mirror = true);

    /**
     * Wrap @p p without encoding anything: the legacy scalar engine
     * runs straight off the dense operands.
     */
    static GemmPlan shallow(const GemmProblem &p);

    /** Deserialized pieces of an encoded plan (store hydration). */
    struct Parts
    {
        int bz = 8;
        DbbMatrix act;
        DbbMatrix wgt;
        /** Dense transposed mirror; empty = none materialized. */
        std::vector<int8_t> wgt_t;
        OperandProfile prof;
    };

    /**
     * Reassemble a plan from fully serialized parts (the persistent
     * plan store's hydration path): every member — encodings,
     * mirror, profile — is adopted verbatim, nothing is recomputed.
     * The caller (PlanStore) is responsible for @p parts having
     * come from a build() of operands identical to @p p; the store's
     * checksum + fingerprint validation establishes exactly that.
     */
    static GemmPlan restore(const GemmProblem &p, Parts parts);

    /**
     * Reassemble a plan from its encodings alone (the spill tier's
     * rehydration path, which persists only the compressed blocks).
     * The profile is re-derived from the masks and the dense mirror
     * re-materialized when @p dense_mirror (the original build
     * request) asks for it, so the result is indistinguishable from
     * a fresh build of the same operands.
     */
    static GemmPlan rebuild(const GemmProblem &p, int bz,
                            DbbMatrix act, DbbMatrix wgt,
                            bool dense_mirror);

    const GemmProblem &problem() const { return *prob; }
    int bz() const { return blk_bz; }
    bool encoded() const { return is_encoded; }

    /** Activation blocks (M vectors of ceil(K/bz) blocks). */
    const DbbMatrix &
    act() const
    {
        s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
        return act_blocks;
    }

    /** Weight blocks (N vectors of ceil(K/bz) blocks). */
    const DbbMatrix &
    wgt() const
    {
        s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
        return wgt_blocks;
    }

    /** Mask-derived operand profile (only on encoded plans). */
    const OperandProfile &
    profile() const
    {
        s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
        return prof;
    }

    /**
     * Dense transposed weight mirror: row j holds the K elements of
     * weight column j contiguously, feeding dbbGemm's contraction.
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
        return act_blocks.nonZeroAt(i, kk);
    }

    /** Mask test: weight (kk, j) non-zero. */
    bool
    wgtNonZero(int kk, int j) const
    {
        return wgt_blocks.nonZeroAt(j, kk);
    }

    /**
     * Verify every weight block satisfies @p spec via its cached
     * mask popcount; fatal on violation. Repeat calls with the same
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
          act_blocks(std::move(o.act_blocks)),
          wgt_blocks(std::move(o.wgt_blocks)),
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
        act_blocks = std::move(o.act_blocks);
        wgt_blocks = std::move(o.wgt_blocks);
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

    /**
     * Shared tail of build()/rebuild(): adopt the encodings, derive
     * the profile from the masks, and materialize the dense mirror
     * when requested. One implementation so a rehydrated plan can
     * never drift from a fresh build.
     */
    static GemmPlan assemble(const GemmProblem &p, int bz,
                             DbbMatrix act, DbbMatrix wgt,
                             bool dense_mirror);

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
    DbbMatrix act_blocks;
    DbbMatrix wgt_blocks;
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

/** @file Property tests for the tiers of the dense INT8 GEMM: every
 *  compiled-in tier this CPU supports must match gemmReference and
 *  the scalar engine bit for bit, across K values around every
 *  tier's chunk width (16 and 64 bytes) and its K tail, ragged
 *  m and n around the register-block shapes, full-range INT8 values
 *  including the all -128 corner that wraps INT32, and any shard
 *  lane count. Tiers the build or CPU lacks are skipped. The same
 *  file covers the AVX-512 VPOPCNTDQ profile sub-kernel and the
 *  forced-cap dispatcher used by the benches' --simd flag.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/array_model.hh"
#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"
#include "base/random.hh"
#include "base/thread_pool.hh"
#include "core/dbb.hh"
#include "tensor/conv.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

constexpr DbbKernelKind kTiers[] = {
    DbbKernelKind::Scalar, DbbKernelKind::Avx2, DbbKernelKind::Avx512};

/** Dense GEMM with every INT8 value equally likely (zeros too). */
GemmProblem
fullRangeGemm(int m, int k, int n, Rng &rng)
{
    GemmProblem p(m, k, n);
    for (auto &v : p.a)
        v = static_cast<int8_t>(rng.uniformInt(-128, 127));
    for (auto &v : p.w)
        v = static_cast<int8_t>(rng.uniformInt(-128, 127));
    return p;
}

/** Tier @p kind's output over all rows, straight from its entry
 *  point (no dispatcher, no stripes). */
std::vector<int32_t>
runTier(DbbKernelKind kind, const GemmProblem &p, const GemmPlan &plan)
{
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n, -1);
    denseGemmRowsFor(kind)(p.a.data(), plan.wgtDenseT(), p.k, p.n, 0,
                           p.m, out.data());
    return out;
}

TEST(GemmKernels, DenseTiersMatchReference)
{
    Rng rng(0xA2C2);
    // K around the 16-byte (baseline, AVX2) and 64-byte (AVX-512)
    // chunks plus a deep 3x3x512 conv; m below, at and above every
    // row block (2 and 4) and odd; n off every 4-column block and
    // across the 64-column panel.
    const int ks[] = {1, 15, 16, 17, 27, 31, 63, 64, 65, 4608};
    const int shapes[][2] = {{1, 1}, {2, 3}, {3, 5}, {5, 7},
                             {7, 66}, {9, 130}};
    for (const DbbKernelKind kind : kTiers) {
        if (!dbbKernelSupported(kind))
            continue;
        for (const int k : ks) {
            for (const auto &mn : shapes) {
                const GemmProblem p =
                    fullRangeGemm(mn[0], k, mn[1], rng);
                const GemmPlan plan = GemmPlan::build(p);
                EXPECT_EQ(runTier(kind, p, plan), gemmReference(p))
                    << dbbKernelKindName(kind) << " m=" << p.m
                    << " k=" << k << " n=" << p.n;
            }
        }
    }
}

TEST(GemmKernels, DenseTiersWrapLikeInt32)
{
    // All -128 operands: every product is 2^14, so K = 140000 sums
    // past 2^31 and must wrap exactly as INT32 addition does.
    const int k = 140000;
    GemmProblem p(3, k, 5);
    std::fill(p.a.begin(), p.a.end(), int8_t{-128});
    std::fill(p.w.begin(), p.w.end(), int8_t{-128});
    const auto want = static_cast<int32_t>(16384u * 140000u);
    ASSERT_LT(want, 0) << "the sum must actually wrap";
    const std::vector<int32_t> ref(static_cast<size_t>(p.m) * p.n,
                                   want);
    EXPECT_EQ(gemmReference(p), ref);
    const GemmPlan plan = GemmPlan::build(p);
    for (const DbbKernelKind kind : kTiers) {
        if (!dbbKernelSupported(kind))
            continue;
        EXPECT_EQ(runTier(kind, p, plan), ref)
            << dbbKernelKindName(kind);
    }
}

TEST(GemmKernels, EveryTierMatchesTheScalarEngine)
{
    // The functional path end to end: an S2TA-AW model run at each
    // forced tier against the per-element scalar engine.
    Rng rng(0xE6);
    const GemmProblem p = makeDbbGemm(301, 512, 42, 2, 2, rng);
    const auto model = makeArrayModel(ArrayConfig::s2taAw(2));
    RunOptions opt;
    opt.compute_output = true;
    RunOptions scalar = opt;
    scalar.engine = EngineKind::Scalar;
    const GemmRun want = model->run(p, scalar);
    for (const DbbKernelKind kind : kTiers) {
        if (!dbbKernelSupported(kind))
            continue;
        dbbForceKernelCap(kind);
        EXPECT_EQ(dbbActiveKernel(), kind);
        const GemmRun got = model->run(p, opt);
        EXPECT_EQ(got.output, want.output) << dbbKernelKindName(kind);
        EXPECT_TRUE(got.events == want.events)
            << dbbKernelKindName(kind);
    }
    dbbForceKernelCap(DbbKernelKind::Avx512);
}

TEST(GemmKernels, ShardLaneCountDoesNotChangeTheResult)
{
    // m > 256 so dbbGemm splits the rows into several stripes; odd
    // m and n leave a ragged block in the last stripe.
    Rng rng(0x5A4D);
    const GemmProblem p = fullRangeGemm(777, 200, 37, rng);
    const GemmPlan plan = GemmPlan::build(p);
    const std::vector<int32_t> ref = gemmReference(p);
    for (const DbbKernelKind kind : kTiers) {
        if (!dbbKernelSupported(kind))
            continue;
        dbbForceKernelCap(kind);
        for (const int lanes : {1, 2, 8}) {
            ThreadPool pool(lanes);
            std::vector<int32_t> out(ref.size(), -1);
            dbbGemm(plan, out.data(), &pool);
            EXPECT_EQ(out, ref)
                << dbbKernelKindName(kind) << " lanes=" << lanes;
        }
    }
    dbbForceKernelCap(DbbKernelKind::Avx512);
}

void
expectProfilesEqual(const OperandProfile &a, const OperandProfile &b,
                    const char *what)
{
    EXPECT_EQ(a.row_nz, b.row_nz) << what;
    EXPECT_EQ(a.col_nz, b.col_nz) << what;
    EXPECT_EQ(a.act_nz_at_k, b.act_nz_at_k) << what;
    EXPECT_EQ(a.wgt_nz_at_k, b.wgt_nz_at_k) << what;
    EXPECT_EQ(a.act_nnz, b.act_nnz) << what;
    EXPECT_EQ(a.wgt_nnz, b.wgt_nnz) << what;
    EXPECT_EQ(a.matched_products, b.matched_products) << what;
}

/** Conv-shaped GEMM corpus (im2col of fuzz-style layer draws): the
 *  profile positions then carry the kernel-tap structure (zero
 *  pad rings, per-tap channel segments) instead of uniform noise. */
GemmProblem
fuzzConvGemm(Rng &rng)
{
    const int gc = 8 << rng.uniformInt(0, 1); // 8 or 16 channels
    const int out_c = static_cast<int>(rng.uniformInt(1, 24));
    const int kern_pick[] = {1, 2, 3, 5};
    const int kh =
        kern_pick[rng.uniformInt(0, std::size(kern_pick) - 1)];
    const int kw =
        kern_pick[rng.uniformInt(0, std::size(kern_pick) - 1)];
    const int h = static_cast<int>(rng.uniformInt(6, 14));
    const int w = static_cast<int>(rng.uniformInt(6, 14));
    const int stride = static_cast<int>(rng.uniformInt(1, 3));
    const int pad = static_cast<int>(rng.uniformInt(0, 2));

    const Conv2dShape shape = {gc, h, w, out_c, kh, kw, stride,
                               pad, 1};
    const int act_nnz = 1 << rng.uniformInt(0, 3);
    const Int8Tensor input =
        makeDbbTensor({h, w, gc}, act_nnz, rng);
    const Int8Tensor weights = makeDbbTensor(
        {kh, kw, gc, out_c},
        static_cast<int>(rng.uniformInt(1, 8)), rng);
    return im2colLower(shape, input, weights);
}

TEST(GemmKernels, ProfileDerivationMatchesScalarOnConvCorpus)
{
    // OperandProfile::fromDbb under the widest cap (VPOPCNTDQ
    // histogram path where supported) vs the forced-scalar per-bit
    // derivation vs the dense reference scan: all three must be
    // bitwise identical over conv-shaped operands. On hosts/builds
    // without the AVX-512 tier both caps run the same loops and the
    // test degrades to fromDbb-vs-build.
    Rng rng(0xF0CC);
    const DbbSpec dense8{8, 8};
    for (int trial = 0; trial < 12; ++trial) {
        const GemmProblem p = fuzzConvGemm(rng);
        const DbbMatrix act = DbbMatrix::fromActivations(p, dense8);
        const DbbMatrix wgt = DbbMatrix::fromWeights(p, dense8);
        const OperandProfile ref = OperandProfile::build(p);

        dbbForceKernelCap(DbbKernelKind::Scalar);
        const OperandProfile scalar =
            OperandProfile::fromDbb(p, act, wgt);
        dbbForceKernelCap(DbbKernelKind::Avx512);
        const OperandProfile simd =
            OperandProfile::fromDbb(p, act, wgt);

        expectProfilesEqual(simd, scalar, "simd vs scalar fromDbb");
        expectProfilesEqual(simd, ref, "fromDbb vs dense build");
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "trial " << trial << " m=" << p.m
                          << " k=" << p.k << " n=" << p.n;
            break;
        }
    }
}

TEST(GemmKernels, DispatcherPrefersWidestTier)
{
    dbbForceKernelCap(DbbKernelKind::Scalar);
    EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::Scalar);
    dbbForceKernelCap(DbbKernelKind::Avx512);
    EXPECT_TRUE(dbbKernelSupported(DbbKernelKind::Scalar));
    if (dbbKernelSupported(DbbKernelKind::Avx512))
        EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::Avx512);
    else if (dbbKernelSupported(DbbKernelKind::Avx2))
        EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::Avx2);
    else
        EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::Scalar);
}

TEST(GemmKernels, ForcedCapClampsEveryTier)
{
    // The --simd flag's mechanism: a cap below the widest supported
    // tier must win, a cap above it must fall back to the widest,
    // and any cap below Avx512 must switch the SIMD profile
    // derivation off (a forced "avx2" run may not execute a single
    // AVX-512 instruction).
    const DbbKernelKind widest = [] {
        dbbForceKernelCap(DbbKernelKind::Avx512);
        return dbbActiveKernel();
    }();
    for (const DbbKernelKind cap : kTiers) {
        dbbForceKernelCap(cap);
        EXPECT_EQ(dbbKernelCap(), cap);
        const DbbKernelKind want = cap < widest ? cap : widest;
        EXPECT_EQ(dbbActiveKernel(), want)
            << "cap " << dbbKernelKindName(cap);
        if (cap < DbbKernelKind::Avx512) {
            EXPECT_FALSE(dbbProfileSimdEnabled())
                << dbbKernelKindName(cap);
        }
    }
    dbbForceKernelCap(DbbKernelKind::Avx512); // restore auto
    EXPECT_EQ(dbbProfileSimdEnabled(),
              dbbVpopcntKernelSupportedImpl());
}

TEST(GemmKernels, KernelKindNamesAreStable)
{
    // Bench JSON contract: these strings appear as "simd_kernel"
    // values and CI asserts on them verbatim.
    EXPECT_STREQ(dbbKernelKindName(DbbKernelKind::Scalar), "scalar");
    EXPECT_STREQ(dbbKernelKindName(DbbKernelKind::Avx2), "avx2");
    EXPECT_STREQ(dbbKernelKindName(DbbKernelKind::Avx512), "avx512");
}

} // namespace
} // namespace s2ta

/** @file Unit tests for the GemmPlan encoding/profile cache and the
 *  dbbGemm kernels. */

#include <gtest/gtest.h>

#include <algorithm>

#include "arch/gemm_plan.hh"
#include "arch/plan_cache.hh"
#include "arch/plan_store.hh"
#include "core/weight_pruner.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

void
expectProfilesEqual(const OperandProfile &a, const OperandProfile &b)
{
    EXPECT_EQ(a.m, b.m);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.row_nz, b.row_nz);
    EXPECT_EQ(a.col_nz, b.col_nz);
    EXPECT_EQ(a.act_nz_at_k, b.act_nz_at_k);
    EXPECT_EQ(a.wgt_nz_at_k, b.wgt_nz_at_k);
    EXPECT_EQ(a.act_nnz, b.act_nnz);
    EXPECT_EQ(a.wgt_nnz, b.wgt_nnz);
    EXPECT_EQ(a.matched_products, b.matched_products);
}

TEST(GemmPlan, MaskProfileMatchesDenseScan)
{
    Rng rng(0xA1);
    for (int trial = 0; trial < 8; ++trial) {
        const int m = static_cast<int>(rng.uniformInt(1, 40));
        const int k = static_cast<int>(rng.uniformInt(1, 130));
        const int n = static_cast<int>(rng.uniformInt(1, 40));
        const GemmProblem p = makeUnstructuredGemm(
            m, k, n, rng.uniformReal(0.0, 0.95),
            rng.uniformReal(0.0, 0.95), rng);
        const GemmPlan plan = GemmPlan::build(p);
        expectProfilesEqual(plan.profile(), OperandProfile::build(p));
    }
}

TEST(GemmPlan, TailBlocksEncodeLosslessly)
{
    // K not a multiple of bz: the tail block zero-pads, and every
    // mask bit / value must still match the dense operand.
    Rng rng(0xA2);
    const GemmProblem p =
        makeUnstructuredGemm(5, 21, 7, 0.4, 0.4, rng);
    const GemmPlan plan = GemmPlan::build(p);
    EXPECT_EQ(plan.act().blocksPerVector(), 3);
    for (int i = 0; i < p.m; ++i)
        for (int kk = 0; kk < p.k; ++kk)
            EXPECT_EQ(plan.actNonZero(i, kk), p.actAt(i, kk) != 0);
    for (int j = 0; j < p.n; ++j)
        for (int kk = 0; kk < p.k; ++kk)
            EXPECT_EQ(plan.wgtNonZero(kk, j), p.wgtAt(kk, j) != 0);
}

TEST(GemmPlan, DenseMirrorIsBuiltWheneverRequested)
{
    // The mirror does not depend on density: at 1/8 x 1/8 as at 8/8,
    // a plan built for outputs carries the exact transpose.
    Rng rng(0xA3);
    for (const int nnz : {1, 4, 8}) {
        const GemmProblem p = makeDbbGemm(6, 40, 9, nnz, nnz, rng);
        const GemmPlan plan = GemmPlan::build(p);
        const int8_t *wt = plan.wgtDenseT();
        ASSERT_NE(wt, nullptr) << "nnz " << nnz;
        for (int j = 0; j < p.n; ++j)
            for (int kk = 0; kk < p.k; ++kk)
                EXPECT_EQ(wt[static_cast<size_t>(j) * p.k + kk],
                          p.wgtAt(kk, j));
        EXPECT_EQ(GemmPlan::build(p, 8, /*dense_mirror=*/false)
                      .wgtDenseT(),
                  nullptr);
    }
}

TEST(GemmPlan, PlansWithoutTheMirrorStillComputeOutputs)
{
    Rng rng(0xA9);
    const GemmProblem p = makeDbbGemm(37, 40, 9, 1, 2, rng);
    const auto ref = gemmReference(p);

    // Built events-only, then reused for an output.
    const GemmPlan events_only = GemmPlan::build(p, 8, false);
    ASSERT_EQ(events_only.wgtDenseT(), nullptr);
    std::vector<int32_t> out(ref.size(), -1);
    dbbGemm(events_only, out.data());
    EXPECT_EQ(out, ref);

    // Hydrated from a store image serialized without the mirror.
    const CachedPlan entry(p, 8, /*dense_mirror=*/false);
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);
    const auto back =
        PlanStore::deserialize(image.data(), image.size(), key);
    ASSERT_NE(back, nullptr);
    ASSERT_EQ(back->plan.wgtDenseT(), nullptr);
    std::fill(out.begin(), out.end(), -1);
    dbbGemm(back->plan, out.data());
    EXPECT_EQ(out, ref);
}

TEST(GemmPlan, DbbGemmMatchesReferenceAcrossDensities)
{
    Rng rng(0xA4);
    // Sweep density from 1/8 to dense on both operands.
    for (int wgt_nnz : {1, 4, 8}) {
        for (int act_nnz : {1, 4, 8}) {
            const GemmProblem p =
                makeDbbGemm(33, 64, 17, wgt_nnz, act_nnz, rng);
            const GemmPlan plan = GemmPlan::build(p);
            std::vector<int32_t> out(
                static_cast<size_t>(p.m) * p.n);
            dbbGemm(plan, out.data());
            EXPECT_EQ(out, gemmReference(p))
                << "W" << wgt_nnz << "/8 A" << act_nnz << "/8";
        }
    }
}

TEST(GemmPlan, OnePlanServesMultipleModels)
{
    Rng rng(0xA5);
    GemmProblem p = makeDbbGemm(24, 64, 20, 4, 4, rng);
    const GemmPlan plan = GemmPlan::build(p);
    const auto ref = gemmReference(p);
    RunOptions opt;
    opt.compute_output = true;
    for (const ArrayConfig &cfg :
         {ArrayConfig::saZvcg(), ArrayConfig::saSmt(2),
          ArrayConfig::s2taW(), ArrayConfig::s2taAw(4)}) {
        EXPECT_EQ(makeArrayModel(cfg)->run(plan, opt).output, ref)
            << cfg.name();
    }
}

TEST(GemmPlanDeath, DensityViolationsAreFatal)
{
    Rng rng(0xA6);
    const GemmProblem p = makeDbbGemm(8, 32, 8, 6, 6, rng);
    const GemmPlan plan = GemmPlan::build(p);
    EXPECT_DEATH(plan.checkWeights(DbbSpec{4, 8}),
                 "pruneWeightsDbb");
    EXPECT_DEATH(plan.checkActivations(DbbSpec{4, 8}), "DAP");
    // The bounds the operands do satisfy pass (and memoize).
    plan.checkWeights(DbbSpec{6, 8});
    plan.checkWeights(DbbSpec{6, 8});
    plan.checkActivations(DbbSpec{6, 8});
}

TEST(GemmPlanDeath, ShallowPlanRefusesEncodedAccess)
{
    Rng rng(0xA7);
    const GemmProblem p = makeDbbGemm(8, 16, 8, 4, 4, rng);
    const GemmPlan plan = GemmPlan::shallow(p);
    EXPECT_FALSE(plan.encoded());
    EXPECT_DEATH(plan.profile(), "shallow");
}

TEST(GemmPlan, ValidationSkippableViaRunOptions)
{
    // With validation off, operands violating the bound still run
    // (the engine models the datapath on whatever it is given).
    Rng rng(0xA8);
    GemmProblem p = makeDbbGemm(8, 32, 8, 6, 4, rng);
    const auto model = makeArrayModel(ArrayConfig::s2taW());
    RunOptions opt;
    opt.compute_output = false;
    opt.validate_operands = false;
    const GemmRun run = model->run(p, opt);
    EXPECT_GT(run.events.cycles, 0);
}

} // anonymous namespace
} // namespace s2ta

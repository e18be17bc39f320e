/** @file Unit tests for the operand non-zero profile. */

#include <gtest/gtest.h>

#include "arch/array_model.hh"
#include "arch/gemm_plan.hh"
#include "tensor/conv.hh"
#include "workload/model_workloads.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

TEST(OperandProfile, CountsMatchBruteForce)
{
    Rng rng(1);
    const GemmProblem p =
        makeUnstructuredGemm(13, 24, 9, 0.6, 0.4, rng);
    const OperandProfile prof = OperandProfile::build(p);

    // Brute-force recount.
    int64_t matched = 0;
    for (int i = 0; i < p.m; ++i) {
        int row_nz = 0;
        for (int kk = 0; kk < p.k; ++kk)
            row_nz += p.actAt(i, kk) != 0;
        EXPECT_EQ(prof.row_nz[static_cast<size_t>(i)], row_nz);
    }
    for (int j = 0; j < p.n; ++j) {
        int col_nz = 0;
        for (int kk = 0; kk < p.k; ++kk)
            col_nz += p.wgtAt(kk, j) != 0;
        EXPECT_EQ(prof.col_nz[static_cast<size_t>(j)], col_nz);
    }
    for (int i = 0; i < p.m; ++i)
        for (int j = 0; j < p.n; ++j)
            for (int kk = 0; kk < p.k; ++kk)
                matched += p.actAt(i, kk) != 0 &&
                           p.wgtAt(kk, j) != 0;
    EXPECT_EQ(prof.matched_products, matched);
}

TEST(OperandProfile, ExactSparsityFromGenerator)
{
    Rng rng(2);
    // 50% weight, 75% activation sparsity with exact per-vector
    // counts.
    const GemmProblem p =
        makeUnstructuredGemm(16, 32, 8, 0.5, 0.75, rng);
    const OperandProfile prof = OperandProfile::build(p);
    EXPECT_EQ(prof.act_nnz, 16 * 8);  // 25% of 32 per row
    EXPECT_EQ(prof.wgt_nnz, 8 * 16);  // 50% of 32 per column
}

TEST(OperandProfile, MatchedProductsIdentity)
{
    // matched == sum_k actNz(k) * wgtNz(k) by definition; verify
    // the identity holds on structured data too.
    Rng rng(3);
    const GemmProblem p = makeDbbGemm(10, 40, 6, 4, 2, rng);
    const OperandProfile prof = OperandProfile::build(p);
    int64_t expect = 0;
    for (int kk = 0; kk < p.k; ++kk)
        expect += static_cast<int64_t>(
                      prof.act_nz_at_k[static_cast<size_t>(kk)]) *
                  prof.wgt_nz_at_k[static_cast<size_t>(kk)];
    EXPECT_EQ(prof.matched_products, expect);
    // DBB 2/8 activations: exactly 2 per block per row.
    EXPECT_EQ(prof.act_nnz, 10ll * (40 / 8) * 2);
    EXPECT_EQ(prof.wgt_nnz, 6ll * (40 / 8) * 4);
}

TEST(OperandProfile, FromMasksMatchesBuildOnEveryZooLayer)
{
    // The mask-derived profile (what every plan carries) against
    // the reference dense scan, on every lowered group of every
    // layer of the zoo, under every kernel cap (the cap decides
    // whether the VPOPCNTDQ derivation may run).
    for (const char *name :
         {"lenet5", "alexnet", "vgg16", "mobilenetv1", "resnet50"}) {
        Rng rng(0x2F0);
        const ModelWorkload mw =
            buildModelWorkload(modelByName(name), rng);
        for (const LayerWorkload &wl : mw.layers) {
            const std::vector<GemmProblem> groups = im2colLowerAll(
                wl.shape, wl.input, wl.weights, 8, wl.batch);
            for (size_t g = 0; g < groups.size(); ++g) {
                const GemmProblem &p = groups[g];
                const OperandProfile ref = OperandProfile::build(p);
                const MaskMatrix act = MaskMatrix::fromActivations(p, 8);
                const MaskMatrix wgt = MaskMatrix::fromWeights(p, 8);
                for (const DbbKernelKind cap :
                     {DbbKernelKind::Scalar, DbbKernelKind::Avx2,
                      DbbKernelKind::Avx512}) {
                    dbbForceKernelCap(cap);
                    const OperandProfile got =
                        OperandProfile::fromMasks(p, act, wgt);
                    dbbForceKernelCap(DbbKernelKind::Avx512);
                    const bool same =
                        got.m == ref.m && got.k == ref.k &&
                        got.n == ref.n && got.row_nz == ref.row_nz &&
                        got.col_nz == ref.col_nz &&
                        got.act_nz_at_k == ref.act_nz_at_k &&
                        got.wgt_nz_at_k == ref.wgt_nz_at_k &&
                        got.act_nnz == ref.act_nnz &&
                        got.wgt_nnz == ref.wgt_nnz &&
                        got.matched_products == ref.matched_products;
                    ASSERT_TRUE(same)
                        << name << " layer " << wl.name << " group "
                        << g << " cap " << dbbKernelKindName(cap);
                }
            }
        }
    }
}

/** Exposes ArrayModel's protected profile selector. */
class ProfileProbe : public ArrayModel
{
  public:
    ProfileProbe() : ArrayModel(ArrayConfig::s2taAw(4)) {}
    using ArrayModel::profileFor;

  private:
    void
    simulate(const GemmPlan &, const RunOptions &, GemmRun &) const
        override
    {}
};

TEST(OperandProfile, FastEngineBorrowsThePlanProfile)
{
    // The fast engine reads the plan's own profile (no per-run
    // copy of the M-int row_nz vector); only the scalar engine
    // builds one, into the caller's scratch.
    Rng rng(4);
    const GemmProblem p = makeDbbGemm(12, 32, 5, 4, 2, rng);
    const GemmPlan plan = GemmPlan::build(p);
    OperandProfile scratch;
    RunOptions opt;
    opt.engine = EngineKind::DbbFast;
    EXPECT_EQ(&ProfileProbe::profileFor(plan, opt, scratch),
              &plan.profile());
    EXPECT_TRUE(scratch.row_nz.empty());

    opt.engine = EngineKind::Scalar;
    const OperandProfile &ref =
        ProfileProbe::profileFor(plan, opt, scratch);
    EXPECT_EQ(&ref, &scratch);
    EXPECT_EQ(ref.row_nz, plan.profile().row_nz);
    EXPECT_EQ(ref.matched_products, plan.profile().matched_products);
}

} // anonymous namespace
} // namespace s2ta

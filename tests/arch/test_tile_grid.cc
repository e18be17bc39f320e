/** @file Tests for the skinny-GEMM fold mapping (FC and depthwise
 *  layers must not idle the array; paper Sec. 8.3). */

#include <gtest/gtest.h>

#include "arch/accelerator.hh"
#include "arch/models.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

int64_t
cyclesFor(const ArrayConfig &cfg, const GemmProblem &p)
{
    RunOptions opt;
    opt.compute_output = false;
    return makeArrayModel(cfg)->run(p, opt).events.cycles;
}

TEST(TileGrid, FcRowFoldRecoversColumnThroughput)
{
    Rng rng(1);
    // Batch-1 FC: m = 1. Without folding, a 32x64 array would need
    // ceil(4096/64) = 64 passes; with row folding it covers
    // 64 * 32 = 2048 columns per pass -> 2 passes.
    const GemmProblem p =
        makeUnstructuredGemm(1, 1024, 4096, 0.5, 0.5, rng);
    const int64_t cycles = cyclesFor(ArrayConfig::saZvcg(), p);
    const int64_t per_pass = 1024 + 32 + 64;
    EXPECT_EQ(cycles, 2 * per_pass);
}

TEST(TileGrid, DepthwiseColFoldRecoversRowThroughput)
{
    Rng rng(2);
    // Depthwise group: n = 1, large m. Column folding processes
    // tileCols row stripes concurrently.
    const GemmProblem p =
        makeUnstructuredGemm(12544, 16, 1, 0.3, 0.3, rng);
    const int64_t cycles = cyclesFor(ArrayConfig::saZvcg(), p);
    // eff_rows = 32 * 64 = 2048 -> ceil(12544/2048) = 7 passes.
    EXPECT_EQ(cycles, 7 * (16 + 32 + 64));
}

TEST(TileGrid, FoldDoesNotChangeEventTotals)
{
    // Folding remaps work across the array; the data-dependent
    // event totals (MACs, matched products) must be identical.
    Rng rng(3);
    const GemmProblem skinny =
        makeUnstructuredGemm(4, 256, 512, 0.5, 0.5, rng);
    RunOptions opt;
    opt.compute_output = false;
    const auto r = makeArrayModel(ArrayConfig::saZvcg())
                       ->run(skinny, opt);
    const OperandProfile prof = OperandProfile::build(skinny);
    EXPECT_EQ(r.events.macs_executed, prof.matched_products);
    EXPECT_EQ(r.events.macSlots(),
              static_cast<int64_t>(skinny.m) * skinny.k * skinny.n);
}

TEST(TileGrid, SquareGemmsUnaffected)
{
    Rng rng(4);
    const GemmProblem p =
        makeUnstructuredGemm(64, 128, 128, 0.5, 0.5, rng);
    // 2x2 plain tiles, no folding.
    EXPECT_EQ(cyclesFor(ArrayConfig::saZvcg(), p),
              4 * (128 + 32 + 64));
}

TEST(TileGrid, FoldAppliesToS2taAwToo)
{
    Rng rng(5);
    GemmProblem p = makeDbbGemm(1, 512, 2048, 4, 2, rng);
    // AW tile is 64 x 32; with m = 1 folding covers 2048 columns in
    // one pass: nblocks * nnz_a + fill.
    const int64_t cycles =
        cyclesFor(ArrayConfig::s2taAw(2), p);
    EXPECT_EQ(cycles, (512 / 8) * 2 + 8 + 8 + 8);
}

TEST(TileGrid, FunctionalOutputUnaffectedByFold)
{
    Rng rng(6);
    GemmProblem p = makeDbbGemm(2, 64, 200, 4, 3, rng);
    for (const ArrayConfig &cfg :
         {ArrayConfig::sa(), ArrayConfig::saSmt(2),
          ArrayConfig::s2taW(), ArrayConfig::s2taAw(3)}) {
        EXPECT_EQ(makeArrayModel(cfg)->run(p).output,
                  gemmReference(p))
            << cfg.name();
    }
}

TEST(TileGrid, FcLayerIsMemoryBoundOnAccelerator)
{
    // The paper's Sec. 8.3 claim depends on the fold: FC compute
    // must be cheap enough that DMA dominates.
    Rng rng(7);
    LayerWorkload wl;
    wl.name = "fc";
    wl.shape = {9216, 1, 1, 4096, 1, 1, 1, 0, 1};
    wl.act_nnz = 4;
    wl.wgt_nnz = 4;
    wl.input = makeDbbTensor({1, 1, 9216}, 4, rng);
    Int8Tensor tmp = makeDbbTensor({1, 1, 4096, 9216}, 4, rng);
    Int8Tensor w({1, 1, 9216, 4096});
    for (int c = 0; c < 9216; ++c)
        for (int oc = 0; oc < 4096; ++oc)
            w(0, 0, c, oc) = tmp(0, 0, oc, c);
    wl.weights = std::move(w);

    AcceleratorConfig acfg;
    acfg.array = ArrayConfig::s2taAw(4);
    const Accelerator acc(acfg);
    const LayerRun lr = acc.runLayer(wl);
    EXPECT_TRUE(lr.memory_bound);
    // Compute is now a small fraction of the DMA-bound time.
    EXPECT_LT(lr.compute_cycles, lr.events.cycles / 2);
}

} // anonymous namespace
} // namespace s2ta

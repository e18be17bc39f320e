/** @file Unit tests for the full-accelerator (layer/network) model. */

#include <gtest/gtest.h>

#include "arch/accelerator.hh"
#include "arch/plan_cache.hh"
#include "workload/model_workloads.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

/** A small conv layer workload with the requested structure. */
LayerWorkload
smallLayer(int act_nnz, int wgt_nnz, Rng &rng)
{
    LayerWorkload wl;
    wl.name = "test_conv";
    wl.shape = {16, 10, 10, 24, 3, 3, 1, 1, 1};
    wl.act_nnz = act_nnz;
    wl.wgt_nnz = wgt_nnz;
    wl.input = act_nnz >= 8
                   ? makeUnstructuredTensor({10, 10, 16}, 0.4, rng)
                   : makeDbbTensor({10, 10, 16}, act_nnz, rng);
    // Weight blocks along cin: generate channel-innermost and
    // transpose.
    Int8Tensor tmp = wgt_nnz >= 8
                         ? makeUnstructuredTensor({3, 3, 24, 16},
                                                  0.2, rng)
                         : makeDbbTensor({3, 3, 24, 16}, wgt_nnz,
                                         rng);
    Int8Tensor w({3, 3, 16, 24});
    for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx)
            for (int c = 0; c < 16; ++c)
                for (int oc = 0; oc < 24; ++oc)
                    w(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    wl.weights = std::move(w);
    return wl;
}

AcceleratorConfig
configFor(ArrayConfig array)
{
    AcceleratorConfig cfg;
    cfg.array = array;
    return cfg;
}

TEST(Accelerator, FunctionalOutputMatchesConvReference)
{
    Rng rng(1);
    const LayerWorkload wl = smallLayer(3, 4, rng);
    for (const ArrayConfig &array :
         {ArrayConfig::sa(), ArrayConfig::saZvcg(),
          ArrayConfig::saSmt(2), ArrayConfig::s2taW(),
          ArrayConfig::s2taAw(3)}) {
        const Accelerator acc(configFor(array));
        const LayerRun lr = acc.runLayer(wl, true);
        const Int32Tensor ref =
            convReference(wl.shape, wl.input, wl.weights);
        EXPECT_TRUE(lr.output == ref) << array.name();
    }
}

TEST(Accelerator, DepthwiseLayerRunsOnAllArchitectures)
{
    Rng rng(2);
    LayerWorkload wl;
    wl.name = "dw";
    wl.shape = {16, 8, 8, 16, 3, 3, 1, 1, 16};
    wl.act_nnz = 4;
    wl.wgt_nnz = 4;
    wl.input = makeDbbTensor({8, 8, 16}, 4, rng);
    wl.weights = makeUnstructuredTensor({3, 3, 1, 16}, 0.0, rng);
    for (const ArrayConfig &array :
         {ArrayConfig::saZvcg(), ArrayConfig::s2taW(),
          ArrayConfig::s2taAw(4)}) {
        const Accelerator acc(configFor(array));
        const LayerRun lr = acc.runLayer(wl, true);
        const Int32Tensor ref =
            convReference(wl.shape, wl.input, wl.weights);
        EXPECT_TRUE(lr.output == ref) << array.name();
    }
}

TEST(Accelerator, FcLayersAreMemoryBound)
{
    Rng rng(3);
    LayerWorkload wl;
    wl.name = "fc";
    wl.shape = {4096, 1, 1, 1000, 1, 1, 1, 0, 1};
    wl.act_nnz = 4;
    wl.wgt_nnz = 4;
    wl.input = makeDbbTensor({1, 1, 4096}, 4, rng);
    wl.weights = makeDbbTensor({1, 1, 1000, 4096}, 4, rng);
    // Transpose into (1, 1, cin, cout).
    Int8Tensor w({1, 1, 4096, 1000});
    for (int c = 0; c < 4096; ++c)
        for (int oc = 0; oc < 1000; ++oc)
            w(0, 0, c, oc) = wl.weights(0, 0, oc, c);
    wl.weights = std::move(w);

    const Accelerator acc(configFor(ArrayConfig::s2taAw(4)));
    const LayerRun lr = acc.runLayer(wl);
    // Batch-1 FC: DMA (weight streaming) dominates (Sec. 8.3).
    EXPECT_TRUE(lr.memory_bound);
    EXPECT_GT(lr.events.cycles, lr.compute_cycles);
}

TEST(Accelerator, DapComparisonsOnlyOnS2taAw)
{
    Rng rng(4);
    const LayerWorkload wl = smallLayer(3, 4, rng);
    const Accelerator aw(configFor(ArrayConfig::s2taAw(3)));
    const Accelerator zvcg(configFor(ArrayConfig::saZvcg()));
    EXPECT_GT(aw.runLayer(wl).events.dap_comparisons, 0);
    EXPECT_EQ(zvcg.runLayer(wl).events.dap_comparisons, 0);
}

TEST(Accelerator, DmaCompressesDbbOperands)
{
    Rng rng(5);
    const LayerWorkload wl = smallLayer(2, 4, rng);
    const Accelerator aw(configFor(ArrayConfig::s2taAw(2)));
    const Accelerator sa(configFor(ArrayConfig::sa()));
    const int64_t dma_aw = aw.runLayer(wl).events.dma_bytes;
    const int64_t dma_sa = sa.runLayer(wl).events.dma_bytes;
    EXPECT_LT(dma_aw, dma_sa);
}

TEST(Accelerator, NetworkRunAccumulatesLayers)
{
    Rng rng(6);
    std::vector<LayerWorkload> layers = {smallLayer(3, 4, rng),
                                         smallLayer(4, 4, rng)};
    const Accelerator acc(configFor(ArrayConfig::s2taAw(3)));
    const NetworkRun nr = acc.runNetwork(layers);
    ASSERT_EQ(nr.layers.size(), 2u);
    EXPECT_EQ(nr.total.cycles, nr.layers[0].events.cycles +
                                   nr.layers[1].events.cycles);
    EXPECT_EQ(nr.dense_macs, nr.layers[0].dense_macs +
                                 nr.layers[1].dense_macs);
}

TEST(Accelerator, LeNetWorkloadEndToEnd)
{
    // Whole-model integration on the smallest zoo model.
    Rng rng(7);
    const ModelWorkload mw = buildModelWorkload(leNet5(), rng);
    for (const ArrayConfig &array :
         {ArrayConfig::saZvcg(), ArrayConfig::s2taAw(4)}) {
        const Accelerator acc(configFor(array));
        const NetworkRun nr = acc.runNetwork(mw.layers);
        EXPECT_EQ(nr.layers.size(), mw.layers.size());
        EXPECT_GT(nr.total.cycles, 0);
        EXPECT_EQ(nr.dense_macs, mw.spec.totalMacs());

        // Every layer's DMA ledger closes: operand upload plus
        // result download is exactly the layer's DMA traffic, on
        // both engines, with and without a plan cache.
        for (const EngineKind engine :
             {EngineKind::DbbFast, EngineKind::Scalar}) {
            for (const bool cached : {false, true}) {
                PlanCache cache;
                NetworkRunOptions opt;
                opt.engine = engine;
                opt.plan_cache = cached ? &cache : nullptr;
                const NetworkRun run = acc.runNetwork(mw.layers, opt);
                ASSERT_EQ(run.layers.size(), mw.layers.size());
                for (const LayerRun &lr : run.layers) {
                    EXPECT_GT(lr.h2d_bytes, 0) << lr.name;
                    EXPECT_GT(lr.d2h_bytes, 0) << lr.name;
                    EXPECT_EQ(lr.h2d_bytes + lr.d2h_bytes,
                              lr.events.dma_bytes)
                        << lr.name << " engine "
                        << static_cast<int>(engine) << " cached "
                        << cached;
                }
            }
        }
    }
}

/**
 * A 1x1 stride-2 layer whose input breaks its declared 2/8 A-DBB
 * bound only at pixel (1, 1), which the convolution never reads. The
 * lowered GEMM therefore passes the array model's own activation
 * check, and the layer-level DAP check is what must catch the input.
 * With @p violate false the same layer is compliant.
 */
LayerWorkload
unreadViolationLayer(bool violate)
{
    Rng rng(8);
    LayerWorkload wl;
    wl.name = "unread_violation";
    wl.shape = {16, 8, 8, 8, 1, 1, 2, 0, 1};
    wl.act_nnz = 2;
    wl.wgt_nnz = 4;
    Int8Tensor in = makeDbbTensor({8, 8, 16}, 2, rng);
    if (violate) {
        for (int c = 0; c < 8; ++c)
            in(1, 1, c) = static_cast<int8_t>(c + 1);
    }
    wl.input = std::move(in);
    const Int8Tensor tmp = makeDbbTensor({1, 1, 8, 16}, 4, rng);
    Int8Tensor w({1, 1, 16, 8});
    for (int c = 0; c < 16; ++c)
        for (int oc = 0; oc < 8; ++oc)
            w(0, 0, c, oc) = tmp(0, 0, oc, c);
    wl.weights = std::move(w);
    return wl;
}

/** The key executePrepared memoizes a layer's DAP statistics under. */
uint64_t
dapMemoKey(const LayerWorkload &wl)
{
    return PlanCache::combine(
        PlanCache::combine(
            0x444150ull,
            PlanCache::hashBytes(wl.input.data(),
                                 static_cast<size_t>(wl.input.size()))),
        static_cast<uint64_t>(wl.act_nnz));
}

constexpr const char *kBoundMsg =
    "does not satisfy its declared A-DBB bound";

TEST(AcceleratorDeath, InputBreakingActBoundPanicsUncached)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const LayerWorkload wl = unreadViolationLayer(true);
    EXPECT_DEATH(
        {
            const Accelerator acc(configFor(ArrayConfig::s2taAw(2)));
            acc.runLayer(wl);
        },
        kBoundMsg);
}

TEST(AcceleratorDeath, InputBreakingActBoundPanicsThroughDapMemo)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The memo key is pinned first: a compliant twin primed under
    // dapMemoKey() must be served from the memo.
    {
        const LayerWorkload ok = unreadViolationLayer(false);
        PlanCache cache;
        cache.dapStats(dapMemoKey(ok),
                       [&] { return dapCheckTensor(ok.input, 2); });
        NetworkRunOptions opt;
        opt.plan_cache = &cache;
        const Accelerator acc(configFor(ArrayConfig::s2taAw(2)));
        EXPECT_GT(acc.runLayer(ok, opt).events.dap_comparisons, 0);
        EXPECT_EQ(cache.stats().dap_hits, 1);
    }

    const LayerWorkload wl = unreadViolationLayer(true);
    // Memo miss: the check runs inside PlanCache::dapStats.
    EXPECT_DEATH(
        {
            PlanCache cache;
            NetworkRunOptions opt;
            opt.plan_cache = &cache;
            const Accelerator acc(configFor(ArrayConfig::s2taAw(2)));
            acc.runLayer(wl, opt);
        },
        kBoundMsg);
    // Memo hit: stats memoized earlier still trip the check.
    EXPECT_DEATH(
        {
            PlanCache cache;
            cache.dapStats(dapMemoKey(wl),
                           [&] { return dapCheckTensor(wl.input, 2); });
            NetworkRunOptions opt;
            opt.plan_cache = &cache;
            const Accelerator acc(configFor(ArrayConfig::s2taAw(2)));
            acc.runLayer(wl, opt);
        },
        kBoundMsg);
}

} // anonymous namespace
} // namespace s2ta

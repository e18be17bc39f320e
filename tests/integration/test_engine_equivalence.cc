/** @file Property tests for the DBB-native fast engine: across
 *  random shapes, sparsity bounds, grouped/depthwise layers, and
 *  the skinny-m/skinny-n tile-fold paths, the fast path's outputs
 *  and event counts must match the scalar engine and gemmReference
 *  bit for bit. */

#include <gtest/gtest.h>

#include "arch/accelerator.hh"
#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "base/thread_pool.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

RunOptions
engineOpt(EngineKind engine)
{
    RunOptions opt;
    opt.compute_output = true;
    opt.engine = engine;
    return opt;
}

void
expectEnginesAgree(const ArrayConfig &cfg, const GemmProblem &p,
                   const char *what)
{
    const auto model = makeArrayModel(cfg);
    const GemmRun fast = model->run(p, engineOpt(EngineKind::DbbFast));
    const GemmRun scalar =
        model->run(p, engineOpt(EngineKind::Scalar));
    const auto ref = gemmReference(p);
    EXPECT_EQ(fast.output, ref) << cfg.name() << " fast: " << what;
    EXPECT_EQ(scalar.output, ref)
        << cfg.name() << " scalar: " << what;
    // Event accounting must be engine-independent too.
    EXPECT_EQ(fast.events.cycles, scalar.events.cycles) << what;
    EXPECT_EQ(fast.events.macs_executed, scalar.events.macs_executed)
        << what;
    EXPECT_EQ(fast.events.macs_gated, scalar.events.macs_gated)
        << what;
    EXPECT_EQ(fast.events.accum_updates, scalar.events.accum_updates)
        << what;
    EXPECT_EQ(fast.events.operand_reg_bytes,
              scalar.events.operand_reg_bytes)
        << what;
}

TEST(EngineEquivalence, RandomShapesAndSparsityBounds)
{
    // Sweep every W-DBB bound 1/8..8/8 (8/8 exercises the dense
    // fallback) and the supported A-DBB bounds over random shapes,
    // including single-block K and ragged tile edges.
    Rng rng(0xE0);
    const int act_bounds[] = {1, 2, 3, 4, 5, 8};
    for (int trial = 0; trial < 24; ++trial) {
        const int m = static_cast<int>(rng.uniformInt(1, 96));
        const int k = 8 * static_cast<int>(rng.uniformInt(1, 40));
        const int n = static_cast<int>(rng.uniformInt(1, 96));
        const int wgt_nnz = static_cast<int>(rng.uniformInt(1, 8));
        const int act_nnz =
            act_bounds[rng.uniformInt(0, std::size(act_bounds) - 1)];
        GemmProblem p = makeDbbGemm(m, k, n, wgt_nnz, act_nnz, rng);

        char what[96];
        std::snprintf(what, sizeof(what),
                      "trial %d: %dx%dx%d W%d/8 A%d/8", trial, m, k,
                      n, wgt_nnz, act_nnz);

        ArrayConfig w = ArrayConfig::s2taW();
        w.weight_dbb = DbbSpec{wgt_nnz, 8};
        expectEnginesAgree(w, p, what);

        ArrayConfig aw = ArrayConfig::s2taAw(act_nnz);
        aw.weight_dbb = DbbSpec{wgt_nnz, 8};
        expectEnginesAgree(aw, p, what);
    }
}

TEST(EngineEquivalence, DenseBaselinesUseTheSameKernels)
{
    Rng rng(0xE1);
    GemmProblem p = makeUnstructuredGemm(40, 72, 56, 0.5, 0.6, rng);
    for (const ArrayConfig &cfg :
         {ArrayConfig::sa(), ArrayConfig::saZvcg(),
          ArrayConfig::saSmt(2), ArrayConfig::saSmt(4)}) {
        expectEnginesAgree(cfg, p, "dense baseline");
    }
}

TEST(EngineEquivalence, SkinnyTileFoldPaths)
{
    Rng rng(0xE2);
    // Skinny-m (FC-like): one output row folds column stripes
    // across the idle row groups.
    GemmProblem fc = makeDbbGemm(1, 512, 96, 4, 4, rng);
    // Skinny-n (depthwise-group-like): two output columns fold row
    // stripes across the idle column groups.
    GemmProblem dw = makeDbbGemm(96, 256, 2, 4, 4, rng);
    for (const ArrayConfig &cfg :
         {ArrayConfig::s2taW(), ArrayConfig::s2taAw(4)}) {
        expectEnginesAgree(cfg, fc, "skinny-m fold");
        expectEnginesAgree(cfg, dw, "skinny-n fold");
    }
}

LayerWorkload
groupedLayer(int groups, Rng &rng)
{
    LayerWorkload wl;
    wl.name = "grouped";
    const int in_c = 16;
    const int out_c = 16;
    const int gc = in_c / groups;
    wl.shape = {in_c, 8, 8, out_c, 3, 3, 1, 1, groups};
    wl.act_nnz = 4;
    wl.wgt_nnz = 4;
    wl.input = makeDbbTensor({8, 8, in_c}, 4, rng);
    // W-DBB blocks run along the input-channel dimension: generate
    // channel-innermost and transpose into (kh, kw, gc, oc).
    const Int8Tensor tmp =
        makeDbbTensor({3, 3, out_c, gc}, std::min(4, gc), rng);
    wl.weights = Int8Tensor({3, 3, gc, out_c});
    for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx)
            for (int c = 0; c < gc; ++c)
                for (int oc = 0; oc < out_c; ++oc)
                    wl.weights(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    return wl;
}

TEST(EngineEquivalence, GroupedAndDepthwiseLayers)
{
    Rng rng(0xE3);
    for (int groups : {1, 4, 16}) { // 16 = depthwise
        const LayerWorkload wl = groupedLayer(groups, rng);
        const Int32Tensor ref =
            convReference(wl.shape, wl.input, wl.weights);
        for (const ArrayConfig &array :
             {ArrayConfig::saZvcg(), ArrayConfig::s2taW(),
              ArrayConfig::s2taAw(4)}) {
            AcceleratorConfig cfg;
            cfg.array = array;
            const Accelerator acc(cfg);
            NetworkRunOptions fast;
            fast.compute_output = true;
            NetworkRunOptions scalar = fast;
            scalar.engine = EngineKind::Scalar;
            const LayerRun fr = acc.runLayer(wl, fast);
            const LayerRun sr = acc.runLayer(wl, scalar);
            EXPECT_TRUE(fr.output == ref)
                << array.name() << " groups=" << groups;
            EXPECT_TRUE(sr.output == ref)
                << array.name() << " groups=" << groups;
            EXPECT_EQ(fr.events.cycles, sr.events.cycles);
            EXPECT_EQ(fr.events.macs_executed,
                      sr.events.macs_executed);
        }
    }
}

TEST(EngineEquivalence, TileStripeShardingIsBitwiseIdentical)
{
    // m > 256 so the output grid splits into several row stripes;
    // sweep sparsity from 1/8 to dense.
    Rng rng(0xE5);
    for (int nnz : {1, 4, 8}) {
        const GemmProblem p =
            makeDbbGemm(700, 128, 48, std::min(nnz, 4), nnz, rng);
        for (const ArrayConfig &cfg :
             {ArrayConfig::s2taW(), ArrayConfig::s2taAw(4),
              ArrayConfig::saZvcg()}) {
            const auto model = makeArrayModel(cfg);
            RunOptions serial;
            serial.compute_output = true;
            serial.validate_operands = false; // nnz=8 is dense
            const GemmRun a = model->run(p, serial);
            for (int workers : {1, 3}) {
                ThreadPool pool(workers);
                RunOptions sharded = serial;
                sharded.shard_pool = &pool;
                const GemmRun b = model->run(p, sharded);
                EXPECT_EQ(a.output, b.output)
                    << cfg.name() << " nnz=" << nnz
                    << " workers=" << workers;
                EXPECT_TRUE(a.events == b.events);
            }
        }
    }
}

TEST(EngineEquivalence, ParallelRunNetworkIsBitwiseIdentical)
{
    Rng rng(0xE4);
    std::vector<LayerWorkload> layers;
    for (int groups : {1, 4, 16, 1})
        layers.push_back(groupedLayer(groups, rng));

    AcceleratorConfig serial_cfg;
    serial_cfg.array = ArrayConfig::s2taAw(4);
    serial_cfg.sim_threads = 1;

    NetworkRunOptions opt;
    opt.compute_output = true;
    const NetworkRun a =
        Accelerator(serial_cfg).runNetwork(layers, opt);
    // 0 = hardware-sized global pool, 2 = dedicated two-lane pool.
    for (int threads : {0, 2}) {
        AcceleratorConfig parallel_cfg = serial_cfg;
        parallel_cfg.sim_threads = threads;
        const NetworkRun b =
            Accelerator(parallel_cfg).runNetwork(layers, opt);
        ASSERT_EQ(a.layers.size(), b.layers.size());
        EXPECT_EQ(a.total.cycles, b.total.cycles);
        EXPECT_EQ(a.total.macs_executed, b.total.macs_executed);
        EXPECT_EQ(a.total.dma_bytes, b.total.dma_bytes);
        for (size_t i = 0; i < a.layers.size(); ++i) {
            EXPECT_TRUE(a.layers[i].output == b.layers[i].output)
                << "threads " << threads << " layer " << i;
            EXPECT_EQ(a.layers[i].events.cycles,
                      b.layers[i].events.cycles);
        }
    }
}

} // anonymous namespace
} // namespace s2ta

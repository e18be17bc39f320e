/** @file Property tests for batch > 1: a batched run is bitwise
 *  identical to the concatenation of the per-sample runs — at the
 *  im2col level (batched GEMM operands are the stacked per-sample
 *  operands), at the layer level (output slice s equals sample s's
 *  output) on every engine, at every shard lane count, and with the
 *  plan cache on or off. Batch folds into the GEMM M axis, so no
 *  engine may observe anything but a taller activation matrix. */

#include <gtest/gtest.h>

#include <cstring>

#include "arch/accelerator.hh"
#include "arch/plan_cache.hh"
#include "workload/model_workloads.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

/**
 * A batched workload with *distinct* random samples (replication
 * would hide sample-indexing bugs that alias one sample's rows onto
 * another's).
 */
LayerWorkload
batchedLayer(const Conv2dShape &shape, int batch, int act_nnz,
             int wgt_nnz, Rng &rng)
{
    LayerWorkload wl;
    wl.name = "batched";
    wl.shape = shape;
    wl.batch = batch;
    wl.act_nnz = act_nnz;
    wl.wgt_nnz = wgt_nnz;

    std::vector<int> in_shape = {shape.in_h, shape.in_w,
                                 shape.in_c};
    if (batch > 1)
        in_shape.insert(in_shape.begin(), batch);
    wl.input = act_nnz >= 8
                   ? makeUnstructuredTensor(in_shape, 0.3, rng)
                   : makeDbbTensor(in_shape, act_nnz, rng);

    // W-DBB blocks run along the input-channel dimension: generate
    // channel-innermost and transpose into (kh, kw, gc, oc).
    const int gc = shape.groupInC();
    const Int8Tensor tmp = makeDbbTensor(
        {shape.kernel_h, shape.kernel_w, shape.out_c, gc},
        std::min(wgt_nnz, gc), rng);
    Int8Tensor w({shape.kernel_h, shape.kernel_w, gc, shape.out_c});
    for (int ky = 0; ky < shape.kernel_h; ++ky)
        for (int kx = 0; kx < shape.kernel_w; ++kx)
            for (int c = 0; c < gc; ++c)
                for (int oc = 0; oc < shape.out_c; ++oc)
                    w(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    wl.weights = std::move(w);
    return wl;
}

/** Sample @p s of a batched workload as a standalone batch-1 one. */
LayerWorkload
sampleOf(const LayerWorkload &b, int s)
{
    LayerWorkload wl;
    wl.name = b.name + "/sample";
    wl.shape = b.shape;
    wl.batch = 1;
    wl.act_nnz = b.act_nnz;
    wl.wgt_nnz = b.wgt_nnz;
    wl.weights = b.weights;
    Int8Tensor in({b.shape.in_h, b.shape.in_w, b.shape.in_c});
    const size_t sample_bytes = static_cast<size_t>(in.size());
    std::memcpy(in.data(),
                b.input.data() +
                    static_cast<size_t>(s) * sample_bytes,
                sample_bytes);
    wl.input = std::move(in);
    return wl;
}

/** The shapes under test: plain conv (with padding), grouped,
 *  depthwise, strided, and FC (the skinny-m tile-fold path). */
std::vector<Conv2dShape>
testShapes()
{
    return {
        {16, 6, 6, 24, 3, 3, 1, 1, 1},  // conv 3x3 pad 1
        {16, 8, 8, 16, 3, 3, 1, 1, 4},  // grouped conv
        {16, 8, 8, 16, 3, 3, 1, 1, 16}, // depthwise
        {8, 9, 9, 12, 3, 3, 2, 0, 1},   // strided, ragged edge
        {64, 1, 1, 32, 1, 1, 1, 0, 1},  // FC (skinny-m fold)
    };
}

TEST(BatchEquivalence, Im2colStacksPerSampleRows)
{
    Rng rng(0xBA7C);
    for (const Conv2dShape &shape : testShapes()) {
        const int batch = 3;
        const LayerWorkload wl =
            batchedLayer(shape, batch, 4, 4, rng);
        const auto batched = im2colLowerAll(shape, wl.input,
                                            wl.weights, 8, batch);
        ASSERT_EQ(batched.size(),
                  static_cast<size_t>(shape.groups));
        for (int g = 0; g < shape.groups; ++g) {
            const GemmProblem &bp =
                batched[static_cast<size_t>(g)];
            const int per_m = shape.outH() * shape.outW();
            ASSERT_EQ(bp.m, batch * per_m);
            for (int s = 0; s < batch; ++s) {
                const LayerWorkload one = sampleOf(wl, s);
                const GemmProblem sp = im2colLower(
                    shape, one.input, one.weights, g, 8);
                ASSERT_EQ(sp.m, per_m);
                ASSERT_EQ(sp.k, bp.k);
                // Weight operand identical, activation rows of
                // sample s are rows [s*per_m, (s+1)*per_m).
                EXPECT_EQ(sp.w, bp.w);
                EXPECT_EQ(0, std::memcmp(
                                 sp.a.data(),
                                 bp.a.data() +
                                     static_cast<size_t>(s) *
                                         per_m * bp.k,
                                 sp.a.size()))
                    << "group " << g << " sample " << s;
            }
        }
    }
}

/** Slice sample @p s out of a batched layer output. */
std::vector<int32_t>
outputSlice(const LayerRun &lr, const Conv2dShape &shape, int s)
{
    const int64_t per_sample = static_cast<int64_t>(shape.outH()) *
                               shape.outW() * shape.out_c;
    std::vector<int32_t> out(static_cast<size_t>(per_sample));
    std::memcpy(out.data(),
                lr.output.data() +
                    static_cast<size_t>(s) * per_sample,
                static_cast<size_t>(per_sample) * sizeof(int32_t));
    return out;
}

TEST(BatchEquivalence, LayerRunMatchesPerSampleRunsOnEveryEngine)
{
    Rng rng(0xBA7D);
    for (const Conv2dShape &shape : testShapes()) {
        const int batch = 3;
        const LayerWorkload wl =
            batchedLayer(shape, batch, 4, 4, rng);
        for (const EngineKind engine :
             {EngineKind::Scalar, EngineKind::DbbFast}) {
            AcceleratorConfig cfg;
            cfg.array = ArrayConfig::s2taAw(4);
            cfg.sim_threads = 1;
            const Accelerator acc(cfg);
            NetworkRunOptions opt;
            opt.compute_output = true;
            opt.engine = engine;

            const LayerRun br = acc.runLayer(wl, opt);
            ASSERT_EQ(br.output.dim(0), batch);
            EXPECT_EQ(br.batch, batch);
            for (int s = 0; s < batch; ++s) {
                const LayerRun sr =
                    acc.runLayer(sampleOf(wl, s), opt);
                const auto slice = outputSlice(br, shape, s);
                ASSERT_EQ(static_cast<int64_t>(slice.size()),
                          sr.output.size());
                EXPECT_EQ(0, std::memcmp(slice.data(),
                                         sr.output.data(),
                                         slice.size() *
                                             sizeof(int32_t)))
                    << "engine "
                    << (engine == EngineKind::Scalar ? "scalar"
                                                     : "fast")
                    << " sample " << s;
            }
        }
    }
}

TEST(BatchEquivalence, EnginesAgreeOnBatchedEventsAndOutputs)
{
    Rng rng(0xBA7E);
    for (const Conv2dShape &shape : testShapes()) {
        const LayerWorkload wl = batchedLayer(shape, 4, 4, 4, rng);
        AcceleratorConfig cfg;
        cfg.array = ArrayConfig::s2taAw(4);
        cfg.sim_threads = 1;
        const Accelerator acc(cfg);
        NetworkRunOptions fast;
        fast.compute_output = true;
        NetworkRunOptions scalar = fast;
        scalar.engine = EngineKind::Scalar;
        const LayerRun fr = acc.runLayer(wl, fast);
        const LayerRun sr = acc.runLayer(wl, scalar);
        EXPECT_TRUE(fr.output == sr.output);
        EXPECT_TRUE(fr.events == sr.events);
        EXPECT_EQ(fr.dense_macs,
                  wl.shape.denseMacs() * wl.batch);
    }
}

TEST(BatchEquivalence, ShardLaneCountsAndPlanCacheAreInvisible)
{
    Rng rng(0xBA7F);
    // Big enough that the batched tile grid splits into several row
    // stripes, so sharding genuinely kicks in.
    const Conv2dShape shape = {16, 12, 12, 24, 3, 3, 1, 1, 1};
    const LayerWorkload wl = batchedLayer(shape, 4, 4, 4, rng);

    AcceleratorConfig serial_cfg;
    serial_cfg.array = ArrayConfig::s2taAw(4);
    serial_cfg.sim_threads = 1;
    NetworkRunOptions opt;
    opt.compute_output = true;
    const LayerRun ref = Accelerator(serial_cfg).runLayer(wl, opt);

    // Shard lane counts: 0 = hardware-sized global pool, dedicated
    // 2- and 4-lane pools.
    for (int threads : {0, 2, 4}) {
        AcceleratorConfig cfg = serial_cfg;
        cfg.sim_threads = threads;
        const LayerRun lr = Accelerator(cfg).runLayer(wl, opt);
        EXPECT_TRUE(lr.output == ref.output)
            << "threads " << threads;
        EXPECT_TRUE(lr.events == ref.events)
            << "threads " << threads;
    }

    // Plan cache: miss pass, then a hit pass, both bitwise equal to
    // the uncached run.
    PlanCache cache;
    NetworkRunOptions cached = opt;
    cached.plan_cache = &cache;
    const Accelerator acc(serial_cfg);
    const LayerRun miss = acc.runLayer(wl, cached);
    const LayerRun hit = acc.runLayer(wl, cached);
    EXPECT_GT(cache.stats().hits, 0);
    for (const LayerRun *lr : {&miss, &hit}) {
        EXPECT_TRUE(lr->output == ref.output);
        EXPECT_TRUE(lr->events == ref.events);
    }
}

TEST(BatchEquivalence, WithBatchReplicatesSamples)
{
    Rng rng(0xBA80);
    const ModelWorkload base =
        buildModelWorkload(leNet5(), rng);
    const ModelWorkload b3 = withBatch(base, 3);
    ASSERT_EQ(b3.layers.size(), base.layers.size());
    for (size_t i = 0; i < b3.layers.size(); ++i) {
        const LayerWorkload &bl = b3.layers[i];
        EXPECT_EQ(bl.batch, 3);
        EXPECT_TRUE(bl.weights == base.layers[i].weights);
        ASSERT_EQ(bl.input.size(),
                  3 * base.layers[i].input.size());
        for (int s = 0; s < 3; ++s) {
            EXPECT_EQ(0,
                      std::memcmp(
                          bl.input.data() +
                              static_cast<size_t>(s) *
                                  base.layers[i].input.size(),
                          base.layers[i].input.data(),
                          static_cast<size_t>(
                              base.layers[i].input.size())));
        }
    }
}

} // anonymous namespace
} // namespace s2ta

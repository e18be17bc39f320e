/** @file Seeded conv-shape fuzzer: a randomized sweep over kernel
 *  sizes (square and rectangular), odd strides, paddings, grouped
 *  and depthwise fan-outs, and batches, asserting on every shape
 *  that the fast DBB engine matches the scalar reference engine bit
 *  for bit (outputs and event counters), and that every sample of
 *  the batch matches the direct convolution reference.
 *
 *  Reproducing a failure: every trial derives its own seed and the
 *  failure message carries it. Re-run just that trial with
 *
 *      S2TA_FUZZ_SEED=<seed> ctest -R integration/test_conv_fuzz
 *
 *  (any base accepted by strtoull, so the printed hex form pastes
 *  directly). When the env var is set the sweep collapses to that
 *  single seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "arch/accelerator.hh"
#include "tensor/conv.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

/**
 * One fuzzed conv layer. Spatial geometry is unconstrained (the
 * h/w floor of 6 keeps every kernel/stride/pad draw valid), but the
 * channel structure follows the safe (groups, group-channels)
 * table: makeDbbTensor structures its nnz bound over flat 8-blocks,
 * so in_c must be a multiple of 8 and each group's channel segment
 * must not straddle an 8-block boundary or im2col re-blocking could
 * exceed the declared DBB bound.
 */
LayerWorkload
fuzzLayer(Rng &rng)
{
    LayerWorkload wl;
    wl.name = "fuzz";

    struct Pick
    {
        int groups, gc;
    };
    const Pick picks[] = {{1, 8}, {1, 16}, {2, 4},  {2, 8},
                          {4, 4}, {8, 4},  {16, 1}};
    const Pick pick = picks[rng.uniformInt(0, std::size(picks) - 1)];
    const int gc = pick.gc;
    const int in_c = pick.gc * pick.groups;
    const int goc = pick.groups >= 8
                        ? static_cast<int>(rng.uniformInt(1, 2))
                        : static_cast<int>(rng.uniformInt(1, 3));
    const int out_c = goc * pick.groups;

    const int kern_pick[] = {1, 2, 3, 5};
    const int kh = kern_pick[rng.uniformInt(0, std::size(kern_pick) - 1)];
    const int kw = kern_pick[rng.uniformInt(0, std::size(kern_pick) - 1)];
    const int h = static_cast<int>(rng.uniformInt(6, 14));
    const int w = static_cast<int>(rng.uniformInt(6, 14));
    const int stride = static_cast<int>(rng.uniformInt(1, 3));
    const int pad = static_cast<int>(rng.uniformInt(0, 2));
    const int batch = static_cast<int>(rng.uniformInt(1, 3));

    wl.shape = {in_c, h, w, out_c, kh, kw, stride, pad, pick.groups};
    wl.batch = batch;
    const int act_bounds[] = {1, 2, 4, 8};
    wl.act_nnz =
        act_bounds[rng.uniformInt(0, std::size(act_bounds) - 1)];
    wl.wgt_nnz = static_cast<int>(rng.uniformInt(1, 8));

    std::vector<int> in_shape = {h, w, in_c};
    if (batch > 1)
        in_shape.insert(in_shape.begin(), batch);
    wl.input = makeDbbTensor(in_shape, wl.act_nnz, rng);

    // W-DBB blocks run along the input-channel dimension: generate
    // channel-innermost and transpose into (kh, kw, gc, oc).
    const Int8Tensor tmp = makeDbbTensor(
        {kh, kw, out_c, gc}, std::min(wl.wgt_nnz, gc), rng);
    Int8Tensor wt({kh, kw, gc, out_c});
    for (int ky = 0; ky < kh; ++ky)
        for (int kx = 0; kx < kw; ++kx)
            for (int c = 0; c < gc; ++c)
                for (int oc = 0; oc < out_c; ++oc)
                    wt(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    wl.weights = std::move(wt);
    return wl;
}

std::string
describe(const LayerWorkload &wl, uint64_t seed)
{
    char buf[192];
    std::snprintf(
        buf, sizeof(buf),
        "conv %dx%dx%d -> %d k%dx%d s%d p%d g%d b%d A%d W%d; "
        "repro: S2TA_FUZZ_SEED=0x%llx ctest -R "
        "integration/test_conv_fuzz",
        wl.shape.in_h, wl.shape.in_w, wl.shape.in_c, wl.shape.out_c,
        wl.shape.kernel_h, wl.shape.kernel_w, wl.shape.stride,
        wl.shape.pad, wl.shape.groups, wl.batch, wl.act_nnz,
        wl.wgt_nnz, static_cast<unsigned long long>(seed));
    return buf;
}

/** Run one seed's layer on the fast and scalar engines and check
 *  them against each other and, sample by sample, against the
 *  direct reference. */
void
fuzzOneSeed(uint64_t seed)
{
    Rng rng(seed);
    const LayerWorkload wl = fuzzLayer(rng);
    SCOPED_TRACE(describe(wl, seed));

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
    EXPECT_TRUE(fr.output == sr.output) << "fast/scalar output";
    EXPECT_TRUE(fr.events == sr.events) << "fast/scalar events";
    EXPECT_EQ(fr.dense_macs, sr.dense_macs);
    EXPECT_EQ(fr.h2d_bytes, sr.h2d_bytes);
    EXPECT_EQ(fr.d2h_bytes, sr.d2h_bytes);

    // Both engines share the layer's output assembly, so each sample
    // is also checked against the direct reference on its own.
    if (wl.batch == 1) {
        const Int32Tensor ref =
            convReference(wl.shape, wl.input, wl.weights);
        EXPECT_TRUE(sr.output == ref) << "scalar vs direct reference";
        return;
    }
    const Conv2dShape &s = wl.shape;
    const int64_t in_len = static_cast<int64_t>(s.in_h) * s.in_w * s.in_c;
    const int64_t out_len =
        static_cast<int64_t>(s.outH()) * s.outW() * s.out_c;
    ASSERT_EQ(sr.output.size(), wl.batch * out_len);
    for (int b = 0; b < wl.batch; ++b) {
        Int8Tensor sample({s.in_h, s.in_w, s.in_c});
        std::copy_n(wl.input.data() + b * in_len, in_len, sample.data());
        const Int32Tensor ref = convReference(s, sample, wl.weights);
        EXPECT_TRUE(std::equal(ref.data(), ref.data() + out_len,
                               sr.output.data() + b * out_len))
            << "scalar vs direct reference, sample " << b;
    }
}

TEST(ConvFuzz, RandomShapeSweepFastVsScalar)
{
    if (const char *env = std::getenv("S2TA_FUZZ_SEED")) {
        // Single-seed repro mode.
        fuzzOneSeed(std::strtoull(env, nullptr, 0));
        return;
    }
    const uint64_t base = 0xF0220000ULL;
    for (int trial = 0; trial < 48; ++trial) {
        fuzzOneSeed(base + static_cast<uint64_t>(trial));
        if (::testing::Test::HasFailure()) {
            // One broken shape is enough; later trials would bury
            // the repro line.
            break;
        }
    }
}

} // anonymous namespace
} // namespace s2ta

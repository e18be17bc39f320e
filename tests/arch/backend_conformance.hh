/**
 * @file
 * Shared fixture of the differential backend-conformance suite.
 *
 * Every backend registered in BackendRegistry is run through the
 * same property tests (tests/arch/test_backend_conformance.cc):
 * randomized layer shapes, queue depths, submission orders and
 * completion interleavings, asserting bitwise-identical
 * NetworkRuns, reconciled DMA/residency counters, and
 * thread-count-independent results against the synchronous
 * Accelerator reference.
 *
 * To put a new backend under the suite, register it — nothing else:
 *
 *     BackendRegistry::add("my-backend",
 *         [](const AcceleratorConfig &acfg,
 *            const BackendConfig &bcfg) {
 *             return std::make_unique<MyBackend>(acfg, bcfg);
 *         });
 *
 * before the suite instantiates (e.g. from a static initializer in
 * its translation unit, as test_backend_conformance.cc itself does
 * for the "conformance-mirror" example backend). The suite is
 * parameterized over BackendRegistry::names(), so the new name is
 * picked up automatically.
 */

#ifndef S2TA_TESTS_ARCH_BACKEND_CONFORMANCE_HH
#define S2TA_TESTS_ARCH_BACKEND_CONFORMANCE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/backend.hh"
#include "base/random.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace conformance {

/** Device config the suite runs: the full S2TA-AW design exercises
 *  every encode path (W-DBB, A-DBB, DAP) a backend must carry. */
inline AcceleratorConfig
deviceConfig(int sim_threads = 1)
{
    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::s2taAw(4);
    cfg.sim_threads = sim_threads;
    return cfg;
}

/**
 * One randomized conv layer: grouped/depthwise fan-outs, ragged
 * spatial dims, strides, padding, batches, and per-layer DBB
 * bounds all vary with @p rng. Operands are generated to satisfy
 * the bounds they declare (block structure along channels, with
 * weights transposed into the (kh, kw, gc, oc) layout the lowering
 * expects).
 */
inline LayerWorkload
randomLayer(Rng &rng, int index)
{
    LayerWorkload wl;
    wl.name = "conf_layer_" + std::to_string(index);

    // (groups, group-channels) pairs chosen so every group's
    // channel segment stays inside the 8-aligned blocks
    // makeDbbTensor structures (in_c a multiple of 8, and gc
    // dividing or being a multiple of 8): the declared DBB bounds
    // then survive im2col for any spatial position and batch.
    struct Pick
    {
        int groups, gc;
    };
    const Pick picks[] = {{1, 8},  {1, 16}, {2, 4}, {2, 8},
                          {4, 4},  {4, 8},  {16, 1}};
    const Pick pick =
        picks[rng.uniformInt(0, std::size(picks) - 1)];
    const int groups = pick.groups;
    const int gc = pick.gc;
    const int in_c = gc * groups;
    const int goc = groups >= 8
                        ? static_cast<int>(rng.uniformInt(1, 2))
                        : 4 * static_cast<int>(rng.uniformInt(1, 2));
    const int out_c = goc * groups;
    const int h = static_cast<int>(rng.uniformInt(5, 9));
    const int w = static_cast<int>(rng.uniformInt(5, 9));
    const int kern = rng.uniformInt(0, 1) ? 3 : 1;
    const int stride = static_cast<int>(rng.uniformInt(1, 2));
    const int pad = kern == 3 ? static_cast<int>(rng.uniformInt(0, 1))
                              : 0;
    const int batch = static_cast<int>(rng.uniformInt(1, 2));

    wl.shape = {in_c, h, w, out_c, kern, kern, stride, pad, groups};
    wl.batch = batch;
    const int act_bounds[] = {2, 4, 8};
    wl.act_nnz =
        act_bounds[rng.uniformInt(0, std::size(act_bounds) - 1)];
    wl.wgt_nnz = static_cast<int>(rng.uniformInt(1, 4));

    std::vector<int> in_shape = {h, w, in_c};
    if (batch > 1)
        in_shape.insert(in_shape.begin(), batch);
    wl.input = makeDbbTensor(in_shape, wl.act_nnz, rng);

    // W-DBB blocks run along the input-channel dimension: generate
    // channel-innermost and transpose into (kh, kw, gc, oc).
    const Int8Tensor tmp = makeDbbTensor(
        {kern, kern, out_c, gc}, std::min(wl.wgt_nnz, gc), rng);
    Int8Tensor wt({kern, kern, gc, out_c});
    for (int ky = 0; ky < kern; ++ky)
        for (int kx = 0; kx < kern; ++kx)
            for (int c = 0; c < gc; ++c)
                for (int oc = 0; oc < out_c; ++oc)
                    wt(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    wl.weights = std::move(wt);
    return wl;
}

/** A randomized little network. */
inline std::vector<LayerWorkload>
randomNetwork(uint64_t seed, int n_layers)
{
    Rng rng(seed);
    std::vector<LayerWorkload> layers;
    layers.reserve(static_cast<size_t>(n_layers));
    for (int i = 0; i < n_layers; ++i)
        layers.push_back(randomLayer(rng, i));
    return layers;
}

/** The options every conformance run uses: functional outputs on,
 *  so bitwise identity covers results, not just events. */
inline NetworkRunOptions
runOptions()
{
    NetworkRunOptions opt;
    opt.compute_output = true;
    return opt;
}

/** The synchronous single-thread reference every backend's output
 *  is differentially compared against. */
inline NetworkRun
referenceRun(const std::vector<LayerWorkload> &layers)
{
    const Accelerator acc(deviceConfig(1));
    return acc.runNetwork(layers, runOptions());
}

/** Assert two layer records are bitwise identical: every event
 *  counter, the DMA/residency ledger, and the functional output. */
inline void
expectSameLayer(const LayerRun &a, const LayerRun &b,
                const char *what)
{
    EXPECT_TRUE(a.events == b.events) << what << ": events";
    EXPECT_TRUE(a.output == b.output) << what << ": output";
    EXPECT_EQ(a.dense_macs, b.dense_macs) << what;
    EXPECT_EQ(a.h2d_bytes, b.h2d_bytes) << what;
    EXPECT_EQ(a.d2h_bytes, b.d2h_bytes) << what;
    EXPECT_EQ(a.compute_cycles, b.compute_cycles) << what;
    EXPECT_EQ(a.memory_bound, b.memory_bound) << what;
    EXPECT_EQ(a.batch, b.batch) << what;
}

/** Assert two whole-network runs are bitwise identical. */
inline void
expectSameRun(const NetworkRun &a, const NetworkRun &b,
              const char *what)
{
    EXPECT_TRUE(a.total == b.total) << what << ": totals";
    EXPECT_EQ(a.dense_macs, b.dense_macs) << what;
    EXPECT_EQ(a.fault_layer, b.fault_layer) << what;
    ASSERT_EQ(a.layers.size(), b.layers.size()) << what;
    for (size_t i = 0; i < a.layers.size(); ++i)
        expectSameLayer(a.layers[i], b.layers[i], what);
}

/**
 * Reconcile a backend's counters against the run it produced: every
 * submitted command completed, the staged/downloaded byte ledger
 * matches the run's per-layer DMA events exactly, and local
 * backends model zero transfer.
 */
inline void
expectStatsReconcile(const Backend &be, const BackendNetworkRun &r)
{
    const BackendStats st = be.stats();
    const int64_t n = static_cast<int64_t>(r.run.layers.size());
    EXPECT_EQ(st.submitted, n);
    EXPECT_EQ(st.completed, n);
    EXPECT_EQ(st.h2d_bytes, r.h2d_bytes);
    EXPECT_EQ(st.d2h_bytes, r.d2h_bytes);
    EXPECT_EQ(st.transfer_cycles, r.transfer_cycles);
    int64_t h2d = 0, d2h = 0, dma = 0;
    for (const LayerRun &lr : r.run.layers) {
        // The residency ledger partitions the DMA ledger, per layer.
        EXPECT_EQ(lr.h2d_bytes + lr.d2h_bytes, lr.events.dma_bytes)
            << lr.name;
        h2d += lr.h2d_bytes;
        d2h += lr.d2h_bytes;
        dma += lr.events.dma_bytes;
    }
    EXPECT_EQ(st.h2d_bytes, h2d);
    EXPECT_EQ(st.d2h_bytes, d2h);
    EXPECT_EQ(st.h2d_bytes + st.d2h_bytes, dma);
}

} // namespace conformance
} // namespace s2ta

#endif // S2TA_TESTS_ARCH_BACKEND_CONFORMANCE_HH

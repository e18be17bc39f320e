/**
 * @file
 * FrozenTensor: the fingerprint taken at construction is exactly
 * PlanCache::hashBytes, copies share storage, and replacing a
 * layer operand re-keys the plan cache.
 */

#include <gtest/gtest.h>

#include "arch/accelerator.hh"
#include "arch/frozen_tensor.hh"
#include "arch/plan_cache.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

Int8Tensor
randomBytes(int n, uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor t({n});
    for (int64_t i = 0; i < t.size(); ++i)
        t.flat(i) = static_cast<int8_t>(rng.uniformInt(-128, 127));
    return t;
}

TEST(FrozenTensor, HashIsHashBytes)
{
    const FrozenTensor empty;
    EXPECT_EQ(empty.size(), 0);
    EXPECT_EQ(empty.hash(), PlanCache::hashBytes(nullptr, 0));

    for (int n : {1, 7, 8, 9, 4095, (1 << 20) + 3}) {
        const Int8Tensor t = randomBytes(n, 0xF0 + n);
        const FrozenTensor f = t;
        EXPECT_EQ(f.size(), n);
        EXPECT_EQ(f.hash(),
                  PlanCache::hashBytes(t.data(),
                                       static_cast<size_t>(t.size())))
            << "size " << n;
        const Int8Tensor &view = f;
        EXPECT_TRUE(view == t) << "size " << n;
    }
}

TEST(FrozenTensor, CopiesShareStorageAndHash)
{
    const FrozenTensor a = randomBytes(4096, 1);
    const FrozenTensor b = a;
    EXPECT_EQ(b.data(), a.data());
    EXPECT_EQ(b.hash(), a.hash());
    const Int8Tensor &view = b;
    EXPECT_EQ(view.data(), a.data());
    EXPECT_TRUE(a == b);

    // Assigning a tensor builds a new operand; the old one and its
    // copies are untouched.
    FrozenTensor c = a;
    Int8Tensor edited = a;
    edited.flat(17) = static_cast<int8_t>(edited.flat(17) ^ 1);
    c = std::move(edited);
    EXPECT_NE(c.data(), a.data());
    EXPECT_NE(c.hash(), a.hash());
    EXPECT_EQ(b.hash(), a.hash());
    EXPECT_FALSE(c == a);
}

/** A small S2TA-AW layer whose input runs below its DAP bound, so
 *  both the plan key and the DAP memo key read the input hash. */
LayerWorkload
dapLayer(Rng &rng)
{
    LayerWorkload wl;
    wl.name = "frozen";
    wl.shape = {16, 8, 8, 16, 3, 3, 1, 1, 1};
    wl.act_nnz = 3;
    wl.wgt_nnz = 4;
    wl.input = makeDbbTensor({8, 8, 16}, 3, rng);
    const Int8Tensor tmp = makeDbbTensor({3, 3, 16, 16}, 4, rng);
    Int8Tensor w({3, 3, 16, 16});
    for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx)
            for (int c = 0; c < 16; ++c)
                for (int oc = 0; oc < 16; ++oc)
                    w(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    wl.weights = std::move(w);
    return wl;
}

TEST(FrozenTensor, ReplacedLayerInputMissesThePlanCache)
{
    // Layer-level form of PlanCache.FingerprintGuardsMutatedOperands:
    // the key comes from the fingerprint the operand carries, so an
    // input replaced by a tensor one byte different must miss and
    // run exactly as an uncached layer would.
    Rng rng(0xF7);
    LayerWorkload wl = dapLayer(rng);
    AcceleratorConfig acfg;
    acfg.array = ArrayConfig::s2taAw(3);
    acfg.sim_threads = 1;
    const Accelerator acc(acfg);

    PlanCache cache;
    NetworkRunOptions cached;
    cached.compute_output = true;
    cached.plan_cache = &cache;
    acc.runLayer(wl, cached);
    const PlanCache::Stats first = cache.stats();
    EXPECT_EQ(first.misses, 1);
    EXPECT_EQ(first.dap_misses, 1);

    // Bump one non-zero activation to another non-zero value: the
    // A-DBB bound still holds, the content does not.
    Int8Tensor edited = wl.input;
    int64_t at = 0;
    while (edited.flat(at) == 0)
        ++at;
    const int8_t v = edited.flat(at);
    edited.flat(at) = static_cast<int8_t>(v == 127 ? 126 : v + 1);
    const uint64_t old_hash = wl.input.hash();
    wl.input = std::move(edited);
    ASSERT_NE(wl.input.hash(), old_hash);

    const LayerRun got = acc.runLayer(wl, cached);
    const PlanCache::Stats second = cache.stats();
    EXPECT_EQ(second.misses, 2);
    EXPECT_EQ(second.hits, first.hits);
    EXPECT_EQ(second.dap_misses, 2);

    NetworkRunOptions uncached;
    uncached.compute_output = true;
    const LayerRun ref = acc.runLayer(wl, uncached);
    EXPECT_TRUE(got.events == ref.events);
    EXPECT_TRUE(got.output == ref.output);
}

} // anonymous namespace
} // namespace s2ta

/** @file Registry contract: workload content is a pure function of
 *  (seed, model name, batch) — request arrival order can never
 *  change it — references are stable, and batch variants share the
 *  deployed model's weights. Batch > 1 entries carry distinct
 *  per-sample content by default (seeded per sample index, so
 *  batches of different sizes share their sample prefix);
 *  BatchMode::Replicate preserves the replication behavior the
 *  batched-equals-concatenated equivalence tests rely on. */

#include <gtest/gtest.h>

#include <cstring>

#include "serve/model_registry.hh"

namespace s2ta {
namespace serve {
namespace {

bool
sameWorkload(const ModelWorkload &a, const ModelWorkload &b)
{
    if (a.layers.size() != b.layers.size())
        return false;
    for (size_t i = 0; i < a.layers.size(); ++i) {
        const LayerWorkload &x = a.layers[i];
        const LayerWorkload &y = b.layers[i];
        if (x.batch != y.batch || !(x.input == y.input) ||
            !(x.weights == y.weights))
            return false;
    }
    return true;
}

TEST(ModelRegistry, StableReferencesAndMemoization)
{
    ModelRegistry reg;
    const ModelWorkload &a = reg.workload("lenet5");
    const ModelWorkload &b = reg.workload("lenet5");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.entries(), 1);
    const ModelWorkload &c = reg.workload("lenet5", 2);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(reg.entries(), 2);
}

TEST(ModelRegistry, ContentIndependentOfArrivalOrder)
{
    // Same seed, opposite request orders: bit-identical workloads.
    ModelRegistry fwd;
    ModelRegistry rev;
    const ModelWorkload &f1 = fwd.workload("lenet5", 1);
    const ModelWorkload &f2 = fwd.workload("lenet5", 2);
    const ModelWorkload &r2 = rev.workload("lenet5", 2);
    const ModelWorkload &r1 = rev.workload("lenet5", 1);
    EXPECT_TRUE(sameWorkload(f1, r1));
    EXPECT_TRUE(sameWorkload(f2, r2));
}

TEST(ModelRegistry, SeedsChangeContent)
{
    ModelRegistry a(1);
    ModelRegistry b(2);
    EXPECT_FALSE(sameWorkload(a.workload("lenet5"),
                              b.workload("lenet5")));
}

TEST(ModelRegistry, BatchVariantsShareTheDeployedModel)
{
    ModelRegistry reg;
    const ModelWorkload &base = reg.workload("lenet5", 1);
    const ModelWorkload &b4 = reg.workload("lenet5", 4);
    ASSERT_EQ(b4.layers.size(), base.layers.size());
    for (size_t i = 0; i < b4.layers.size(); ++i) {
        EXPECT_EQ(b4.layers[i].batch, 4);
        EXPECT_TRUE(b4.layers[i].weights ==
                    base.layers[i].weights);
        EXPECT_EQ(b4.layers[i].input.size(),
                  4 * base.layers[i].input.size());
        EXPECT_EQ(b4.layers[i].act_nnz, base.layers[i].act_nnz);
        EXPECT_EQ(b4.layers[i].wgt_nnz, base.layers[i].wgt_nnz);
    }
}

/** Pointer to sample @p s of a batched layer input. */
const int8_t *
sampleData(const LayerWorkload &wl, int s)
{
    const size_t sample_elems =
        static_cast<size_t>(wl.input.size()) /
        static_cast<size_t>(wl.batch);
    return wl.input.data() + static_cast<size_t>(s) * sample_elems;
}

bool
samplesEqual(const LayerWorkload &a, int sa,
             const LayerWorkload &b, int sb)
{
    const size_t bytes = static_cast<size_t>(a.input.size()) /
                         static_cast<size_t>(a.batch);
    return std::memcmp(sampleData(a, sa), sampleData(b, sb),
                       bytes) == 0;
}

TEST(ModelRegistry, BatchVariantsShareWeightStorage)
{
    // Frozen operands: a batch variant holds the base's weight
    // tensors themselves, not copies, in either batch mode.
    for (const BatchMode mode :
         {BatchMode::Distinct, BatchMode::Replicate}) {
        ModelRegistry reg(1, mode);
        const ModelWorkload &b1 = reg.workload("alexnet", 1);
        const ModelWorkload &b2 = reg.workload("alexnet", 2);
        ASSERT_EQ(b2.layers.size(), b1.layers.size());
        for (size_t i = 0; i < b1.layers.size(); ++i) {
            EXPECT_EQ(b2.layers[i].weights.data(),
                      b1.layers[i].weights.data());
            EXPECT_EQ(b2.layers[i].weights.hash(),
                      b1.layers[i].weights.hash());
        }
    }
}

TEST(ModelRegistry, DistinctBatchesCarryDistinctSamples)
{
    ModelRegistry reg; // BatchMode::Distinct is the default
    const ModelWorkload &base = reg.workload("lenet5", 1);
    const ModelWorkload &b3 = reg.workload("lenet5", 3);
    bool any_differs = false;
    for (size_t i = 0; i < b3.layers.size(); ++i) {
        const LayerWorkload &bl = b3.layers[i];
        // Sample 0 is the batch-1 base...
        EXPECT_EQ(0, std::memcmp(sampleData(bl, 0),
                                 base.layers[i].input.data(),
                                 static_cast<size_t>(
                                     base.layers[i].input.size())));
        // ...and later samples are fresh content.
        for (int s = 1; s < 3; ++s)
            any_differs = any_differs || !samplesEqual(bl, 0, bl, s);
    }
    EXPECT_TRUE(any_differs);
}

TEST(ModelRegistry, DistinctBatchesShareTheSamplePrefix)
{
    // Sample s is seeded by (model seed, s) alone: batch-2 and
    // batch-4 entries agree on their common samples, bit for bit.
    ModelRegistry reg;
    const ModelWorkload &b2 = reg.workload("lenet5", 2);
    const ModelWorkload &b4 = reg.workload("lenet5", 4);
    for (size_t i = 0; i < b2.layers.size(); ++i) {
        for (int s = 0; s < 2; ++s) {
            EXPECT_TRUE(samplesEqual(b2.layers[i], s,
                                     b4.layers[i], s))
                << "layer " << i << " sample " << s;
        }
    }
}

TEST(ModelRegistry, DistinctBatchContentIndependentOfOrder)
{
    ModelRegistry fwd;
    ModelRegistry rev;
    const ModelWorkload &f = fwd.workload("lenet5", 3);
    rev.workload("lenet5", 1);
    rev.workload("lenet5", 4);
    const ModelWorkload &r = rev.workload("lenet5", 3);
    EXPECT_TRUE(sameWorkload(f, r));
}

TEST(ModelRegistry, ReplicateModePreservesReplication)
{
    ModelRegistry reg(0x5E47E, BatchMode::Replicate);
    EXPECT_EQ(reg.batchMode(), BatchMode::Replicate);
    const ModelWorkload &base = reg.workload("lenet5", 1);
    const ModelWorkload &b3 = reg.workload("lenet5", 3);
    for (size_t i = 0; i < b3.layers.size(); ++i) {
        for (int s = 0; s < 3; ++s) {
            EXPECT_EQ(0,
                      std::memcmp(sampleData(b3.layers[i], s),
                                  base.layers[i].input.data(),
                                  static_cast<size_t>(
                                      base.layers[i]
                                          .input.size())));
        }
    }
    // And the replicate-mode base equals the distinct-mode base:
    // the mode only changes batch > 1 derivation.
    ModelRegistry distinct;
    EXPECT_TRUE(sameWorkload(base, distinct.workload("lenet5", 1)));
}

TEST(ModelRegistry, DistinctBatchSatisfiesDeclaredBounds)
{
    // The generated samples must satisfy the layers' declared DBB
    // bounds: run a distinct-batch workload with operand validation
    // on (a violated bound is fatal inside the run).
    ModelRegistry reg;
    const ModelWorkload &mw = reg.workload("lenet5", 3);
    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::s2taAw(4);
    cfg.sim_threads = 1;
    const Accelerator acc(cfg);
    NetworkRunOptions opt;
    opt.validate_operands = true;
    const NetworkRun nr = acc.runNetwork(mw.layers, opt);
    EXPECT_EQ(nr.layers.size(), mw.layers.size());
    EXPECT_GT(nr.total.cycles, 0);
}

} // anonymous namespace
} // namespace serve
} // namespace s2ta

/** @file Unit tests for per-model sparsity profiles and workload
 *  construction. */

#include <gtest/gtest.h>

#include "workload/model_workloads.hh"

namespace s2ta {
namespace {

TEST(Profiles, AverageActDensitiesNearTable3)
{
    // Table 3 reports MAC-weighted average A-DBB densities:
    // AlexNet 3.9/8, VGG-16 3.1/8, MobileNetV1 4.8/8,
    // ResNet-50 3.49/8. Our per-layer profiles should land close
    // (the paper averages are per-layer tuned, ours are encoded
    // curves; allow a loose band).
    struct Expect { const char *name; double avg_density; };
    const Expect cases[] = {
        {"AlexNet", 3.9 / 8},
        {"VGG-16", 3.1 / 8},
        {"MobileNetV1", 4.8 / 8},
        {"ResNet-50V1", 3.49 / 8},
    };
    const auto models = benchmarkModels();
    for (const Expect &e : cases) {
        const ModelSpec *spec = nullptr;
        for (const ModelSpec &m : models)
            if (m.name == e.name)
                spec = &m;
        ASSERT_NE(spec, nullptr) << e.name;
        const double avg =
            averageActDensity(*spec, sparsityProfile(*spec));
        EXPECT_NEAR(avg, e.avg_density, 0.15) << e.name;
    }
}

TEST(Profiles, FirstLayerExcludedFromPruning)
{
    for (const ModelSpec &m : benchmarkModels()) {
        const auto prof = sparsityProfile(m);
        EXPECT_EQ(prof[0].wgt_nnz, 8) << m.name;
        EXPECT_EQ(prof[0].act_nnz, 8) << m.name;
    }
}

TEST(Profiles, ActDensityFallsWithDepthOnResNet)
{
    // Sec. 5.2: "per-layer tuned activation DBB ranges from 8/8
    // (dense) in early layers down to 2/8 towards the end".
    const ModelSpec m = resNet50();
    const auto prof = sparsityProfile(m);
    EXPECT_GE(prof[1].act_nnz, 5);
    EXPECT_EQ(prof[prof.size() - 2].act_nnz, 2);
}

TEST(Profiles, AllValuesSupportedByDapHardware)
{
    for (const ModelSpec &m : benchmarkModels()) {
        for (const LayerSparsity &ls : sparsityProfile(m)) {
            const bool supported =
                (ls.act_nnz >= 1 && ls.act_nnz <= 5) ||
                ls.act_nnz == 8;
            EXPECT_TRUE(supported)
                << m.name << " act_nnz=" << ls.act_nnz;
        }
    }
}

TEST(Workloads, LeNetTensorsCarryDeclaredStructure)
{
    Rng rng(1);
    const ModelWorkload mw = buildModelWorkload(leNet5(), rng);
    ASSERT_EQ(mw.layers.size(), mw.spec.layers.size());
    for (size_t i = 0; i < mw.layers.size(); ++i) {
        const LayerWorkload &wl = mw.layers[i];
        EXPECT_EQ(wl.shape.in_h, wl.input.dim(0)) << wl.name;
        EXPECT_EQ(wl.shape.in_c, wl.input.dim(2)) << wl.name;
        // Activation blocks satisfy the declared bound.
        if (wl.act_nnz < 8) {
            const int channels = wl.input.dim(2);
            for (int64_t base = 0; base < wl.input.size();
                 base += channels) {
                for (int off = 0; off < channels; off += 8) {
                    const int len = std::min(8, channels - off);
                    int nz = 0;
                    for (int e = 0; e < len; ++e)
                        nz += wl.input.data()[base + off + e] != 0;
                    EXPECT_LE(nz, wl.act_nnz) << wl.name;
                }
            }
        }
    }
}

TEST(Workloads, NarrowStemTightensDeclaredBounds)
{
    Rng rng(2);
    const ModelWorkload mw = buildModelWorkload(alexNet(), rng);
    // conv1 input has 3 channels: physically at most 3 non-zeros
    // per 8-block, so the declared A-DBB bound tightens to 3.
    EXPECT_LE(mw.layers[0].act_nnz, 3);
    EXPECT_LE(mw.layers[0].wgt_nnz, 4);
}

TEST(Workloads, WeightBlocksRunAlongInputChannels)
{
    Rng rng(3);
    const ModelWorkload mw = buildModelWorkload(vgg16(), rng);
    // Pick a pruned conv layer and check blocks along cin.
    const LayerWorkload &wl = mw.layers[4]; // conv3_1-ish, 3/8
    ASSERT_LT(wl.wgt_nnz, 8);
    const Conv2dShape &s = wl.shape;
    for (int ky = 0; ky < s.kernel_h; ++ky) {
        for (int oc = 0; oc < std::min(8, s.out_c); ++oc) {
            for (int b = 0; b < s.groupInC() / 8; ++b) {
                int nz = 0;
                for (int e = 0; e < 8; ++e)
                    nz += wl.weights(ky, 0, b * 8 + e, oc) != 0;
                EXPECT_LE(nz, wl.wgt_nnz);
            }
        }
    }
}

} // anonymous namespace
} // namespace s2ta

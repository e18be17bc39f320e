/** @file Unit tests for Dynamic Activation Pruning (software
 *  reference and the Fig. 8 hardware cascade model).
 *
 *  The differential oracles (DapOracle.*, DapDifferential.*) derive
 *  their trial seeds from a fixed base and print the failing one.
 *  Re-run just that trial with
 *
 *      S2TA_FUZZ_SEED=<seed> ctest -R core/test_dap
 *
 *  (any base accepted by strtoull, so the printed hex form pastes
 *  directly). When the env var is set the sweep collapses to that
 *  single seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>

#include "base/random.hh"
#include "core/dap.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

TEST(DapUnit, MatchesFig8Example)
{
    // Paper Fig. 8 input block; for 4/8 DBB the output elements are
    // [4, 5, -7, 6] (positions 1, 3, 7, 5 in magnitude order).
    const std::array<int8_t, 8> blk = {0, 4, 1, 5, 2, 6, -1, -7};
    DapUnit dap;
    const auto res = dap.process(blk, 4);
    ASSERT_EQ(res.winner_positions.size(), 4u);
    EXPECT_EQ(res.winner_positions[0], 7); // |-7|
    EXPECT_EQ(res.winner_positions[1], 5); // |6|
    EXPECT_EQ(res.winner_positions[2], 3); // |5|
    EXPECT_EQ(res.winner_positions[3], 1); // |4|
    EXPECT_EQ(res.comparisons, 4 * 7);
}

class DapAgreement : public ::testing::TestWithParam<int>
{
};

TEST_P(DapAgreement, HardwareCascadeEqualsReference)
{
    const int nnz = GetParam();
    Rng rng(static_cast<uint64_t>(100 + nnz));
    DapUnit dap;
    for (int trial = 0; trial < 2000; ++trial) {
        std::array<int8_t, 8> blk{};
        for (auto &v : blk) {
            v = rng.bernoulli(0.35)
                    ? 0
                    : static_cast<int8_t>(rng.uniformInt(-128, 127));
        }
        const Mask8 ref = dapSelectMask(blk, nnz);
        const auto hw = dap.process(blk, nnz);
        EXPECT_EQ(hw.mask, ref)
            << "nnz=" << nnz << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSupportedNnz, DapAgreement,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(DapUnit, DenseBypassFlagsNonZerosWithoutComparisons)
{
    const std::array<int8_t, 8> blk = {0, 4, 0, 5, 0, 6, 0, -7};
    DapUnit dap;
    const auto res = dap.process(blk, 8);
    EXPECT_EQ(res.comparisons, 0);
    EXPECT_EQ(maskPopcount(res.mask), 4);
}

TEST(DapUnit, StopsEarlyWhenOnlyZerosRemain)
{
    const std::array<int8_t, 8> blk = {0, 0, 9, 0, 0, 0, 0, 0};
    DapUnit dap;
    const auto res = dap.process(blk, 4);
    // One non-zero: later stages select nothing and the mask stays
    // at one bit, but the first stages' comparators were exercised.
    EXPECT_EQ(maskPopcount(res.mask), 1);
    ASSERT_EQ(res.winner_positions.size(), 1u);
    EXPECT_EQ(res.winner_positions[0], 2);
}

TEST(DapUnitDeath, UnsupportedNnzRejected)
{
    const std::array<int8_t, 8> blk{};
    DapUnit dap; // max_stages = 5
    EXPECT_DEATH(dap.process(blk, 6), "unsupported NNZ");
    EXPECT_DEATH(dap.process(blk, 0), "unsupported NNZ");
}

TEST(DapPrune, TensorEnforcesBoundAndCountsDrops)
{
    Rng rng(7);
    Int8Tensor t = makeUnstructuredTensor({4, 4, 16}, 0.3, rng);
    const DapStats st = dapPruneTensor(t, 3);
    // Every 8-channel block now has at most 3 non-zeros.
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            for (int b = 0; b < 2; ++b) {
                int nz = 0;
                for (int c = 0; c < 8; ++c)
                    nz += t(y, x, b * 8 + c) != 0;
                EXPECT_LE(nz, 3);
            }
        }
    }
    EXPECT_GT(st.nonzeros_dropped, 0);
    EXPECT_GT(st.l2_retained, 0.5);
    EXPECT_LT(st.l2_retained, 1.0);
    // 4*4*2 blocks, 3 stages of 7 comparisons each.
    EXPECT_EQ(st.blocks, 32);
    EXPECT_EQ(st.comparisons, 32 * 3 * 7);
}

TEST(DapPrune, TopNnzKeepsLargestMagnitudesPerBlock)
{
    Int8Tensor t({1, 1, 8});
    const int8_t vals[8] = {3, -100, 7, 50, -2, 60, 1, -4};
    for (int c = 0; c < 8; ++c)
        t(0, 0, c) = vals[c];
    dapPruneTensor(t, 3);
    EXPECT_EQ(t(0, 0, 1), -100);
    EXPECT_EQ(t(0, 0, 5), 60);
    EXPECT_EQ(t(0, 0, 3), 50);
    EXPECT_EQ(t(0, 0, 0), 0);
    EXPECT_EQ(t(0, 0, 2), 0);
}

TEST(DapPrune, AlreadyStructuredTensorLossless)
{
    Rng rng(8);
    Int8Tensor t = makeDbbTensor({4, 4, 16}, 2, rng);
    const DapStats st = dapPruneTensor(t, 2);
    EXPECT_EQ(st.nonzeros_dropped, 0);
    EXPECT_DOUBLE_EQ(st.l2_retained, 1.0);
}

TEST(DapPrune, GemmVariantPrunesRows)
{
    Rng rng(9);
    GemmProblem p = makeUnstructuredGemm(4, 32, 4, 0.5, 0.2, rng);
    dapPruneActivations(p, 2);
    for (int i = 0; i < p.m; ++i) {
        for (int b = 0; b < p.k / 8; ++b) {
            int nz = 0;
            for (int e = 0; e < 8; ++e)
                nz += p.actAt(i, b * 8 + e) != 0;
            EXPECT_LE(nz, 2);
        }
    }
}

/**
 * Reference DapStats built block by block from DapUnit::process, the
 * cycle-level cascade, with the L2 energy accumulated in double.
 * Pruned values land in @p pruned. A cascaded block pays all `bound`
 * stages of len-1 comparators (the array is clocked whatever the
 * data), while DapUnit::process stops counting at the first stage
 * that finds only zeros, so its count is a lower bound here.
 */
DapStats
oracleDap(const Int8Tensor &t, int nnz, Int8Tensor &pruned)
{
    pruned = t;
    const int vec_len = t.dim(t.rank() - 1);
    const int bz = DapConfig{}.bz;
    DapStats st;
    double l2_before = 0.0, l2_after = 0.0;
    for (int64_t base = 0; base < t.size(); base += vec_len) {
        for (int off = 0; off < vec_len; off += bz) {
            const int len = std::min(bz, vec_len - off);
            const int bound = std::min(nnz, len);
            int8_t *blk = pruned.data() + base + off;
            for (int i = 0; i < len; ++i) {
                const double m = std::abs(static_cast<int>(blk[i]));
                st.nonzeros_before += blk[i] != 0;
                l2_before += m * m;
            }
            Mask8 keep = 0;
            if (nnz == bz || bound >= len) {
                ++st.bypassed_blocks;
                keep = 0xFF;
            } else {
                ++st.blocks;
                st.comparisons += static_cast<int64_t>(bound) * (len - 1);
                const DapUnit unit(DapConfig{len, len});
                const auto res = unit.process(
                    std::span<const int8_t>(blk, static_cast<size_t>(len)),
                    bound);
                EXPECT_LE(res.comparisons, bound * (len - 1));
                keep = res.mask;
            }
            for (int i = 0; i < len; ++i) {
                const double m = std::abs(static_cast<int>(blk[i]));
                if (maskTest(keep, i)) {
                    l2_after += m * m;
                } else if (blk[i] != 0) {
                    ++st.nonzeros_dropped;
                    blk[i] = 0;
                }
            }
        }
    }
    st.l2_retained = l2_before > 0.0 ? l2_after / l2_before : 1.0;
    return st;
}

/**
 * A random activation tensor whose blocks mix compliant and
 * over-bound non-zero counts. Half the trials draw from a small
 * alphabet rich in magnitude ties (including -128 against 127 and
 * -127), the other half from the full int8 range.
 */
Int8Tensor
oracleTensor(Rng &rng, int channels)
{
    static const int8_t kTies[] = {1, -1, 2, -2, 127, -127, -128, 5};
    const bool ties = rng.bernoulli(0.5);
    const int h = static_cast<int>(rng.uniformInt(1, 4));
    const int w = static_cast<int>(rng.uniformInt(1, 4));
    Int8Tensor t({h, w, channels});
    for (int64_t base = 0; base < t.size(); base += channels) {
        for (int off = 0; off < channels; off += 8) {
            const int len = std::min(8, channels - off);
            const double density =
                static_cast<double>(rng.uniformInt(0, len)) / len;
            for (int i = 0; i < len; ++i) {
                if (!rng.bernoulli(density))
                    continue;
                t.data()[base + off + i] =
                    ties ? kTies[rng.uniformInt(0, std::size(kTies) - 1)]
                         : rng.nonZeroInt8();
            }
        }
    }
    return t;
}

uint64_t
doubleBits(double d)
{
    return std::bit_cast<uint64_t>(d);
}

void
expectSameStats(const DapStats &got, const DapStats &ref,
                const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(got.blocks, ref.blocks);
    EXPECT_EQ(got.bypassed_blocks, ref.bypassed_blocks);
    EXPECT_EQ(got.comparisons, ref.comparisons);
    EXPECT_EQ(got.nonzeros_dropped, ref.nonzeros_dropped);
    EXPECT_EQ(got.nonzeros_before, ref.nonzeros_before);
    EXPECT_EQ(doubleBits(got.l2_retained), doubleBits(ref.l2_retained))
        << got.l2_retained << " vs " << ref.l2_retained;
}

/** One seed: a tensor and an NNZ bound, checked against the oracle
 *  through both the pruning and the checking entry points. */
void
oracleOneSeed(uint64_t seed)
{
    static const int kChannels[] = {3, 8, 13, 16, 67};
    static const int kNnz[] = {1, 2, 3, 4, 5, 8};
    Rng rng(seed);
    const int channels =
        kChannels[rng.uniformInt(0, std::size(kChannels) - 1)];
    const int nnz = kNnz[rng.uniformInt(0, std::size(kNnz) - 1)];
    const Int8Tensor t = oracleTensor(rng, channels);

    char desc[128];
    std::snprintf(desc, sizeof(desc),
                  "C=%d nnz=%d; repro: S2TA_FUZZ_SEED=0x%llx ctest -R "
                  "core/test_dap",
                  channels, nnz, static_cast<unsigned long long>(seed));
    SCOPED_TRACE(desc);

    Int8Tensor ref_pruned;
    const DapStats ref = oracleDap(t, nnz, ref_pruned);

    const DapStats checked = dapCheckTensor(t, nnz);
    expectSameStats(checked, ref, "dapCheckTensor");

    Int8Tensor pruned = t;
    const DapStats st = dapPruneTensor(pruned, nnz);
    expectSameStats(st, ref, "dapPruneTensor");
    EXPECT_TRUE(pruned == ref_pruned) << "pruned bytes differ";
}

TEST(DapOracle, RandomTensorsMatchCascadeModel)
{
    if (const char *env = std::getenv("S2TA_FUZZ_SEED")) {
        // Single-seed repro mode.
        oracleOneSeed(std::strtoull(env, nullptr, 0));
        return;
    }
    const uint64_t base = 0xDA900000ULL;
    for (int trial = 0; trial < 4000; ++trial) {
        oracleOneSeed(base + static_cast<uint64_t>(trial));
        if (::testing::Test::HasFailure())
            break; // keep the first repro line on top
    }
}

TEST(DapOracle, CheckLeavesTensorUntouched)
{
    Rng rng(13);
    const Int8Tensor t = makeUnstructuredTensor({4, 4, 24}, 0.2, rng);
    const Int8Tensor before = t;
    const DapStats st = dapCheckTensor(t, 2);
    EXPECT_GT(st.nonzeros_dropped, 0);
    EXPECT_TRUE(t == before);
}

/**
 * Per-element DAP reference, independent of the library's block
 * helpers: geometry counts per block, Top-`bound` selection by
 * repeated strict-greater magnitude scans (lowest index wins ties),
 * integer L2 sums. Pruned values land in @p pruned.
 */
DapStats
elementwiseDap(const Int8Tensor &t, int nnz, int bz, Int8Tensor &pruned)
{
    pruned = t;
    const int vec_len = t.dim(t.rank() - 1);
    DapStats st;
    int64_t l2_before = 0, l2_after = 0;
    for (int64_t base = 0; base < t.size(); base += vec_len) {
        for (int off = 0; off < vec_len; off += bz) {
            const int len = std::min(bz, vec_len - off);
            const int bound = std::min(nnz, len);
            int8_t *blk = pruned.data() + base + off;
            if (nnz == bz || bound >= len) {
                ++st.bypassed_blocks;
            } else {
                ++st.blocks;
                st.comparisons += static_cast<int64_t>(bound) * (len - 1);
            }
            for (int i = 0; i < len; ++i) {
                st.nonzeros_before += blk[i] != 0;
                l2_before += blk[i] * blk[i];
            }
            bool keep[8] = {};
            for (int stage = 0; stage < bound; ++stage) {
                int best = -1, best_mag = 0;
                for (int i = 0; i < len; ++i) {
                    if (!keep[i] && std::abs(blk[i]) > best_mag) {
                        best_mag = std::abs(blk[i]);
                        best = i;
                    }
                }
                if (best < 0)
                    break;
                keep[best] = true;
            }
            for (int i = 0; i < len; ++i) {
                if (keep[i]) {
                    l2_after += blk[i] * blk[i];
                } else if (blk[i] != 0) {
                    ++st.nonzeros_dropped;
                    blk[i] = 0;
                }
            }
        }
    }
    st.l2_retained = l2_before > 0 ? static_cast<double>(l2_after) /
                                         static_cast<double>(l2_before)
                                   : 1.0;
    return st;
}

/**
 * A {h, w, channels} tensor built block by block, each block one of:
 * compliant (at most `bound` non-zeros), over-bound (more, where the
 * block is long enough), all zero, or extreme (any count of 127,
 * -127 and -128, the largest squares and the magnitude ties).
 */
Int8Tensor
differentialTensor(Rng &rng, int channels, int nnz)
{
    static const int8_t kExtremes[] = {127, -127, -128};
    const int h = static_cast<int>(rng.uniformInt(1, 5));
    const int w = static_cast<int>(rng.uniformInt(1, 5));
    Int8Tensor t({h, w, channels});
    for (int64_t base = 0; base < t.size(); base += channels) {
        for (int off = 0; off < channels; off += 8) {
            const int len = std::min(8, channels - off);
            const int bound = std::min(nnz, len);
            const int kind = static_cast<int>(rng.uniformInt(0, 3));
            int nz = 0;
            if (kind == 0)
                nz = static_cast<int>(rng.uniformInt(0, bound));
            else if (kind == 1)
                nz = static_cast<int>(
                    rng.uniformInt(std::min(bound + 1, len), len));
            else if (kind == 3)
                nz = static_cast<int>(rng.uniformInt(0, len));
            int pos[8];
            for (int i = 0; i < len; ++i)
                pos[i] = i;
            for (int i = 0; i < nz; ++i) {
                std::swap(pos[i],
                          pos[rng.uniformInt(i, len - 1)]);
                t.data()[base + off + pos[i]] =
                    kind == 3 ? kExtremes[rng.uniformInt(0, 2)]
                              : rng.nonZeroInt8();
            }
        }
    }
    return t;
}

/** One seed of the differential test: both entry points against the
 *  per-element reference, every field and the pruned bytes. */
void
differentialOneSeed(uint64_t seed)
{
    Rng rng(seed);
    const int channels = static_cast<int>(rng.uniformInt(1, 40));
    const int nnz = static_cast<int>(rng.uniformInt(1, 8));
    // The shipped cascade stops at 5 stages; a deeper one reaches
    // the 6/8 and 7/8 bounds through the same code.
    const DapConfig cfg =
        DapConfig{}.supports(nnz) ? DapConfig{} : DapConfig{8, 8};
    const Int8Tensor t = differentialTensor(rng, channels, nnz);

    char desc[128];
    std::snprintf(desc, sizeof(desc),
                  "C=%d nnz=%d; repro: S2TA_FUZZ_SEED=0x%llx ctest -R "
                  "core/test_dap",
                  channels, nnz, static_cast<unsigned long long>(seed));
    SCOPED_TRACE(desc);

    Int8Tensor ref_pruned;
    const DapStats ref = elementwiseDap(t, nnz, cfg.bz, ref_pruned);
    expectSameStats(dapCheckTensor(t, nnz, cfg), ref, "dapCheckTensor");
    Int8Tensor pruned = t;
    expectSameStats(dapPruneTensor(pruned, nnz, cfg), ref,
                    "dapPruneTensor");
    EXPECT_TRUE(pruned == ref_pruned) << "pruned bytes differ";
}

TEST(DapDifferential, SeededTensorsMatchPerElementReference)
{
    if (const char *env = std::getenv("S2TA_FUZZ_SEED")) {
        // Single-seed repro mode.
        differentialOneSeed(std::strtoull(env, nullptr, 0));
        return;
    }
    const uint64_t base = 0xDAD00000ULL;
    for (int trial = 0; trial < 4000; ++trial) {
        differentialOneSeed(base + static_cast<uint64_t>(trial));
        if (::testing::Test::HasFailure())
            break; // keep the first repro line on top
    }
}

TEST(DapDifferential, LongCompliantRunSumsExactly)
{
    // 2^16 + 1 pairs of compliant blocks, each holding its bound of
    // -128s (the largest square) in its top positions: enough that a
    // 32-bit square lane left unwidened would wrap. The odd last
    // block is dense and over bound, so the retained L2 share
    // depends on the compliant sums.
    for (const int nnz : {4, 5}) {
        Int8Tensor t({(1 << 17) + 3, 8});
        for (int64_t i = 0; i < t.size(); i += 8)
            for (int e = 0; e < nnz; ++e)
                t.data()[i + 7 - e] = -128;
        std::fill(t.data() + t.size() - 8, t.data() + t.size(),
                  int8_t{-128});
        Int8Tensor ref_pruned;
        const DapStats ref = elementwiseDap(t, nnz, 8, ref_pruned);
        ASSERT_EQ(ref.nonzeros_dropped, 8 - nnz);
        expectSameStats(dapCheckTensor(t, nnz), ref, "dapCheckTensor");
    }
}

TEST(ChooseLayerNnz, DenseDataNeedsBypass)
{
    Rng rng(10);
    // Nearly dense activations: no small NNZ can retain 98% energy.
    Int8Tensor t = makeUnstructuredTensor({8, 8, 32}, 0.05, rng);
    EXPECT_EQ(chooseLayerNnz(t, 0.98), 8);
}

TEST(ChooseLayerNnz, SparseDataGetsSmallNnz)
{
    Rng rng(11);
    Int8Tensor t = makeDbbTensor({8, 8, 32}, 2, rng);
    EXPECT_LE(chooseLayerNnz(t, 0.98), 2);
}

TEST(ChooseLayerNnz, MonotoneInRetentionThreshold)
{
    Rng rng(12);
    Int8Tensor t = makeUnstructuredTensor({8, 8, 32}, 0.55, rng);
    const int loose = chooseLayerNnz(t, 0.80);
    const int tight = chooseLayerNnz(t, 0.995);
    EXPECT_LE(loose, tight);
}

} // anonymous namespace
} // namespace s2ta

/** @file Tests for EventCounts arithmetic and the accelerator's DMA
 *  residency policy. */

#include <gtest/gtest.h>

#include "arch/accelerator.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

EventCounts
sample()
{
    EventCounts ev;
    ev.cycles = 100;
    ev.logical_macs = 1000;
    ev.macs_executed = 250;
    ev.macs_zero = 50;
    ev.macs_gated = 700;
    ev.operand_reg_bytes = 2000;
    ev.operand_reg_gated_bytes = 100;
    ev.accum_updates = 250;
    ev.accum_gated = 750;
    ev.fifo_pushes = 10;
    ev.fifo_pops = 10;
    ev.mux_selects = 1000;
    ev.wgt_sram_bytes = 512;
    ev.act_sram_read_bytes = 1024;
    ev.act_sram_write_bytes = 64;
    ev.dap_comparisons = 70;
    ev.actfn_elements = 64;
    ev.dma_bytes = 4096;
    return ev;
}

TEST(EventCounts, AddAccumulatesEveryField)
{
    EventCounts a = sample();
    a.add(sample());
    const EventCounts s = sample();
    EXPECT_EQ(a.cycles, 2 * s.cycles);
    EXPECT_EQ(a.logical_macs, 2 * s.logical_macs);
    EXPECT_EQ(a.macs_executed, 2 * s.macs_executed);
    EXPECT_EQ(a.macs_zero, 2 * s.macs_zero);
    EXPECT_EQ(a.macs_gated, 2 * s.macs_gated);
    EXPECT_EQ(a.operand_reg_bytes, 2 * s.operand_reg_bytes);
    EXPECT_EQ(a.operand_reg_gated_bytes,
              2 * s.operand_reg_gated_bytes);
    EXPECT_EQ(a.accum_updates, 2 * s.accum_updates);
    EXPECT_EQ(a.accum_gated, 2 * s.accum_gated);
    EXPECT_EQ(a.fifo_pushes, 2 * s.fifo_pushes);
    EXPECT_EQ(a.fifo_pops, 2 * s.fifo_pops);
    EXPECT_EQ(a.mux_selects, 2 * s.mux_selects);
    EXPECT_EQ(a.wgt_sram_bytes, 2 * s.wgt_sram_bytes);
    EXPECT_EQ(a.act_sram_read_bytes, 2 * s.act_sram_read_bytes);
    EXPECT_EQ(a.act_sram_write_bytes, 2 * s.act_sram_write_bytes);
    EXPECT_EQ(a.dap_comparisons, 2 * s.dap_comparisons);
    EXPECT_EQ(a.actfn_elements, 2 * s.actfn_elements);
    EXPECT_EQ(a.dma_bytes, 2 * s.dma_bytes);
}

TEST(EventCounts, ScaleRoundsToNearest)
{
    EventCounts ev = sample();
    ev.scale(0.5);
    EXPECT_EQ(ev.cycles, 50);
    EXPECT_EQ(ev.macs_executed, 125);
    EXPECT_EQ(ev.dma_bytes, 2048);
    ev.scale(2.0);
    EXPECT_EQ(ev.cycles, 100);
}

TEST(EventCounts, MacSlotsIsTheSlotSum)
{
    const EventCounts ev = sample();
    EXPECT_EQ(ev.macSlots(), 250 + 50 + 700);
}

/** Layer whose weights are sized relative to the weight SRAM. */
LayerWorkload
weightHeavyLayer(int out_c, Rng &rng)
{
    LayerWorkload wl;
    wl.name = "wh";
    wl.shape = {256, 8, 8, out_c, 3, 3, 1, 1, 1};
    wl.act_nnz = 8;
    wl.wgt_nnz = 8;
    wl.input = makeUnstructuredTensor({8, 8, 256}, 0.4, rng);
    wl.weights = makeUnstructuredTensor({3, 3, 256, out_c}, 0.2,
                                        rng);
    return wl;
}

TEST(DmaPolicy, ResidentOperandsLoadOnce)
{
    Rng rng(1);
    // 3*3*256*64 = 147 KB weights: fits the 512 KB WB.
    const LayerWorkload wl = weightHeavyLayer(64, rng);
    AcceleratorConfig acfg;
    acfg.array = ArrayConfig::saZvcg();
    const Accelerator acc(acfg);
    const LayerRun lr = acc.runLayer(wl);
    const int64_t expect =
        wl.weights.size() + wl.input.size() +
        static_cast<int64_t>(wl.shape.outH()) * wl.shape.outW() *
            wl.shape.out_c;
    EXPECT_EQ(lr.events.dma_bytes, expect);
}

TEST(DmaPolicy, OversizedWeightsStillStreamOnce)
{
    Rng rng(2);
    // 3*3*256*512 = 1.2 MB weights: overflows the WB, but the
    // activations are resident, so weights stream exactly once
    // (column-stripe-outer order).
    const LayerWorkload wl = weightHeavyLayer(512, rng);
    AcceleratorConfig acfg;
    acfg.array = ArrayConfig::saZvcg();
    const Accelerator acc(acfg);
    const LayerRun lr = acc.runLayer(wl);
    const int64_t expect =
        wl.weights.size() + wl.input.size() +
        static_cast<int64_t>(wl.shape.outH()) * wl.shape.outW() *
            wl.shape.out_c;
    EXPECT_EQ(lr.events.dma_bytes, expect);
}

TEST(DmaPolicy, NeitherFitsRefetchesTheCheaperOperand)
{
    Rng rng(3);
    LayerWorkload wl = weightHeavyLayer(512, rng);
    AcceleratorConfig acfg;
    acfg.array = ArrayConfig::saZvcg();
    // Shrink both SRAMs below the operand sizes.
    acfg.wgt_sram_bytes = 64 * 1024;
    acfg.act_sram_bytes = 8 * 1024;
    const Accelerator acc(acfg);
    const LayerRun lr = acc.runLayer(wl);
    // Some refetch must now happen.
    const int64_t once =
        wl.weights.size() + wl.input.size() +
        static_cast<int64_t>(wl.shape.outH()) * wl.shape.outW() *
            wl.shape.out_c;
    EXPECT_GT(lr.events.dma_bytes, once);
}

TEST(DmaPolicy, DbbCompressionShrinksWeightDma)
{
    Rng rng(4);
    LayerWorkload wl = weightHeavyLayer(64, rng);
    // Same layer, but with 4/8-pruned weights declared as such.
    LayerWorkload pruned = wl;
    pruned.wgt_nnz = 4;
    Int8Tensor tmp = makeDbbTensor({3, 3, 64, 256}, 4, rng);
    Int8Tensor w = pruned.weights;
    for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx)
            for (int c = 0; c < 256; ++c)
                for (int oc = 0; oc < 64; ++oc)
                    w(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    pruned.weights = std::move(w);

    AcceleratorConfig acfg;
    acfg.array = ArrayConfig::s2taAw(8);
    const Accelerator acc(acfg);
    const int64_t dense_dma = acc.runLayer(wl).events.dma_bytes;
    const int64_t dbb_dma = acc.runLayer(pruned).events.dma_bytes;
    // 5 bytes per 8: weights shrink by 3/8 of their share.
    EXPECT_LT(dbb_dma, dense_dma);
}

} // anonymous namespace
} // namespace s2ta

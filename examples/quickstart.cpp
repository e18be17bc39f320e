/**
 * @file
 * Quickstart: compress a convolution with DBB, run it on the
 * time-unrolled S2TA-AW array, verify the result bit-exactly, and
 * print performance/energy next to the SA-ZVCG baseline.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "arch/accelerator.hh"
#include "base/table.hh"
#include "energy/energy_model.hh"
#include "workload/sparse_gen.hh"

using namespace s2ta;

int
main()
{
    std::printf("S2TA quickstart: one 3x3 conv layer, "
                "4/8 W-DBB + 3/8 A-DBB\n\n");

    // 1. Describe the layer: 28x28x64 input, 128 output channels.
    Conv2dShape shape{64, 28, 28, 128, 3, 3, 1, 1, 1};

    // 2. Make DBB-structured operands. A deployed model would come
    //    from DBB-aware fine-tuning (see examples/dap_training);
    //    here the generator emits the structure directly.
    Rng rng(42);
    LayerWorkload layer;
    layer.name = "conv3x3";
    layer.shape = shape;
    layer.act_nnz = 3; // per-layer A-DBB density (1..5 or 8)
    layer.wgt_nnz = 4; // W-DBB density (the paper's 4/8 point)
    layer.input = makeDbbTensor({shape.in_h, shape.in_w, shape.in_c},
                                layer.act_nnz, rng);
    {
        // Weight blocks run along input channels: generate with
        // channels innermost, then transpose into (kh, kw, ci, co).
        // Operands are frozen once assigned, so build the tensor
        // first.
        Int8Tensor tmp = makeDbbTensor(
            {3, 3, shape.out_c, shape.in_c}, layer.wgt_nnz, rng);
        Int8Tensor w({3, 3, shape.in_c, shape.out_c});
        for (int ky = 0; ky < 3; ++ky)
            for (int kx = 0; kx < 3; ++kx)
                for (int c = 0; c < shape.in_c; ++c)
                    for (int oc = 0; oc < shape.out_c; ++oc)
                        w(ky, kx, c, oc) = tmp(ky, kx, oc, c);
        layer.weights = std::move(w);
    }

    // 3. Run on S2TA-AW and on the SA-ZVCG baseline.
    Table t({"Design", "Cycles", "MACs executed", "SRAM bytes",
             "Energy uJ", "Speedup"});
    int64_t base_cycles = 0;
    for (const ArrayConfig &cfg :
         {ArrayConfig::saZvcg(), ArrayConfig::s2taAw(layer.act_nnz)}) {
        AcceleratorConfig acfg;
        acfg.array = cfg;
        const Accelerator acc(acfg);
        const EnergyModel em(TechParams::tsmc16(), acfg);

        // compute_output=true: the model computes the conv through
        // its own datapath (mask/rank mux steering for S2TA).
        const LayerRun run = acc.runLayer(layer, true);

        // 4. Verify against the golden direct convolution.
        const Int32Tensor golden =
            convReference(shape, layer.input, layer.weights);
        if (!(run.output == golden)) {
            std::fprintf(stderr, "FUNCTIONAL MISMATCH\n");
            return 1;
        }

        if (base_cycles == 0)
            base_cycles = run.events.cycles;
        t.addRow({cfg.name(), Table::count(run.events.cycles),
                  Table::count(run.events.macs_executed),
                  Table::count(run.events.wgt_sram_bytes +
                               run.events.act_sram_read_bytes),
                  Table::num(em.energy(run.events).totalUj(), 1),
                  Table::ratio(static_cast<double>(base_cycles) /
                               run.events.cycles)});
    }
    t.print();

    std::printf("\nOutputs verified bit-exact against the golden "
                "convolution.\n");
    std::printf("Expected: ~%.1fx speedup (BZ/NNZ_a = 8/3) and a "
                "large energy win.\n", 8.0 / 3.0);
    return 0;
}

/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot kernels:
 * golden GEMM, operand profiling, DBB encode/decode, DAP pruning,
 * the SMT queue automaton, and whole-GEMM simulation per
 * architecture. These guard the simulator's own performance (the
 * full-model benches depend on it), not the paper's results.
 */

#include <benchmark/benchmark.h>

#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "core/dap.hh"
#include "core/dbb.hh"
#include "core/weight_pruner.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

const GemmProblem &
sharedProblem()
{
    static const GemmProblem p = [] {
        Rng rng(0xBEEF);
        return makeUnstructuredGemm(256, 1152, 128, 0.5, 0.5, rng);
    }();
    return p;
}

void
BM_GemmReference(benchmark::State &state)
{
    const GemmProblem &p = sharedProblem();
    for (auto _ : state)
        benchmark::DoNotOptimize(gemmReference(p));
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_GemmReference)->Unit(benchmark::kMillisecond);

void
BM_OperandProfile(benchmark::State &state)
{
    const GemmProblem &p = sharedProblem();
    for (auto _ : state)
        benchmark::DoNotOptimize(OperandProfile::build(p));
    state.SetItemsProcessed(
        state.iterations() *
        (static_cast<int64_t>(p.m) * p.k + static_cast<int64_t>(p.k)
         * p.n));
}
BENCHMARK(BM_OperandProfile)->Unit(benchmark::kMicrosecond);

void
BM_OperandProfileFromMasks(benchmark::State &state)
{
    const GemmProblem &p = sharedProblem();
    const GemmPlan plan = GemmPlan::build(p);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            OperandProfile::fromMasks(p, plan.act(), plan.wgt()));
    state.SetItemsProcessed(
        state.iterations() *
        (static_cast<int64_t>(p.m) * p.k + static_cast<int64_t>(p.k)
         * p.n));
}
BENCHMARK(BM_OperandProfileFromMasks)->Unit(benchmark::kMicrosecond);

/** The DBB masks of both operands: the SSE2 pcmpeqb/pmovmskb pass
 *  over A and the byte-OR pass over W's K-rows. */
void
BM_MaskBuild(benchmark::State &state)
{
    const GemmProblem &p = sharedProblem();
    for (auto _ : state) {
        benchmark::DoNotOptimize(MaskMatrix::fromActivations(p, 8));
        benchmark::DoNotOptimize(MaskMatrix::fromWeights(p, 8));
    }
    state.SetBytesProcessed(
        state.iterations() *
        (static_cast<int64_t>(p.m) * p.k +
         static_cast<int64_t>(p.k) * p.n));
}
BENCHMARK(BM_MaskBuild)->Unit(benchmark::kMicrosecond);

void
BM_GemmPlanBuild(benchmark::State &state)
{
    const GemmProblem &p = sharedProblem();
    for (auto _ : state)
        benchmark::DoNotOptimize(GemmPlan::build(p));
    state.SetBytesProcessed(
        state.iterations() *
        (static_cast<int64_t>(p.m) * p.k + static_cast<int64_t>(p.k)
         * p.n));
}
BENCHMARK(BM_GemmPlanBuild)->Unit(benchmark::kMicrosecond);

void
BM_DbbGemm(benchmark::State &state)
{
    // The DBB-native functional kernel on the same GEMM as
    // BM_GemmReference, through the dispatcher: the headline
    // per-element vs blocked dense comparison.
    const GemmProblem &p = sharedProblem();
    const GemmPlan plan = GemmPlan::build(p);
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n);
    for (auto _ : state) {
        dbbGemm(plan, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(dbbKernelKindName(dbbActiveKernel()));
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_DbbGemm)->Unit(benchmark::kMillisecond);

/**
 * The blocked dense GEMM per tier: kernel-ladder rows side by side,
 * each tier's entry point called directly. range(0) picks the tier
 * (skipped with an error when the host/build lacks it — an absent
 * row can never be mistaken for a slow one); range(1) picks K: 1152
 * (a 3x3x128 conv, whole 16/64-byte chunks) or 392 (the 7x7x8
 * stem, a K tail on every tier).
 */
void
BM_DenseGemmTier(benchmark::State &state)
{
    const auto kind = static_cast<DbbKernelKind>(state.range(0));
    if (!dbbKernelSupported(kind)) {
        state.SkipWithError("tier unavailable on this host/build");
        return;
    }
    const int k = static_cast<int>(state.range(1));
    Rng rng(0xDE4);
    const GemmProblem p = makeUnstructuredGemm(256, k, 128, 0.0, 0.0,
                                               rng);
    const GemmPlan plan = GemmPlan::build(p);
    const DenseGemmRowsFn rows = denseGemmRowsFor(kind);
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n);
    for (auto _ : state) {
        rows(p.a.data(), plan.wgtDenseT(), p.k, p.n, 0, p.m,
             out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(dbbKernelKindName(kind));
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_DenseGemmTier)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 2, 1), {1152, 392}})
    ->Unit(benchmark::kMicrosecond);

/**
 * OperandProfile::fromMasks per derivation tier: the forced-scalar
 * per-bit mask loops vs the VPOPCNTDQ vectorized popcount +
 * histogram (range(0)). Same work as BM_OperandProfileFromMasks,
 * dispatch pinned either side.
 */
void
BM_ProfileDerivationTier(benchmark::State &state)
{
    const bool simd = state.range(0) != 0;
    if (simd && !dbbProfileSimdEnabled()) {
        state.SkipWithError("no AVX512-VPOPCNTDQ on this "
                            "host/build");
        return;
    }
    const GemmProblem &p = sharedProblem();
    const GemmPlan plan = GemmPlan::build(p);
    dbbForceKernelCap(simd ? DbbKernelKind::Avx512
                           : DbbKernelKind::Scalar);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            OperandProfile::fromMasks(p, plan.act(), plan.wgt()));
    dbbForceKernelCap(DbbKernelKind::Avx512);
    state.SetLabel(simd ? "avx512-vpopcntdq" : "scalar-bitloops");
    state.SetBytesProcessed(
        state.iterations() *
        (static_cast<int64_t>(p.m) * p.k +
         static_cast<int64_t>(p.k) * p.n) / 8); // mask bytes read
}
BENCHMARK(BM_ProfileDerivationTier)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void
BM_DbbEncodeDecode(benchmark::State &state)
{
    Rng rng(7);
    GemmProblem p = makeDbbGemm(64, 512, 64, 4, 8, rng);
    const DbbSpec spec{4, 8};
    for (auto _ : state) {
        const DbbMatrix m = DbbMatrix::fromWeights(p, spec);
        benchmark::DoNotOptimize(m.toDense());
    }
    state.SetBytesProcessed(state.iterations() * 512 * 64);
}
BENCHMARK(BM_DbbEncodeDecode)->Unit(benchmark::kMicrosecond);

void
BM_DapPrune(benchmark::State &state)
{
    Rng rng(8);
    const Int8Tensor base =
        makeUnstructuredTensor({56, 56, 128}, 0.4, rng);
    for (auto _ : state) {
        Int8Tensor t = base;
        benchmark::DoNotOptimize(dapPruneTensor(t, 3));
    }
    state.SetBytesProcessed(state.iterations() * base.size());
}
BENCHMARK(BM_DapPrune)->Unit(benchmark::kMillisecond);

/** The path every functional S2TA-AW layer runs: checking an input
 *  that already meets its A-DBB bound, without copying it. */
void
BM_DapCheckCompliant(benchmark::State &state)
{
    Rng rng(8);
    const Int8Tensor t = makeDbbTensor({56, 56, 128}, 3, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(dapCheckTensor(t, 3));
    state.SetBytesProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_DapCheckCompliant)->Unit(benchmark::kMillisecond);

void
BM_WeightPrune(benchmark::State &state)
{
    Rng rng(9);
    const GemmProblem base =
        makeUnstructuredGemm(8, 1152, 256, 0.0, 0.0, rng);
    for (auto _ : state) {
        GemmProblem p = base;
        benchmark::DoNotOptimize(pruneWeightsDbb(p, DbbSpec{4, 8}));
    }
}
BENCHMARK(BM_WeightPrune)->Unit(benchmark::kMillisecond);

void
BM_SmtQueueAutomaton(benchmark::State &state)
{
    Rng rng(10);
    std::vector<int> arrivals(4096);
    for (auto &a : arrivals)
        a = static_cast<int>(rng.uniformInt(0, 2));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            SaSmtModel::queueCycles(arrivals, 2));
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SmtQueueAutomaton)->Unit(benchmark::kMicrosecond);

void
BM_SimulateArch(benchmark::State &state)
{
    const auto kind = static_cast<ArchKind>(state.range(0));
    const auto engine = static_cast<EngineKind>(state.range(1));
    ArrayConfig cfg;
    switch (kind) {
      case ArchKind::Sa:     cfg = ArrayConfig::sa(); break;
      case ArchKind::SaZvcg: cfg = ArrayConfig::saZvcg(); break;
      case ArchKind::SaSmt:  cfg = ArrayConfig::saSmt(2); break;
      case ArchKind::S2taW:  cfg = ArrayConfig::s2taW(); break;
      case ArchKind::S2taAw: cfg = ArrayConfig::s2taAw(4); break;
    }
    Rng rng(11);
    GemmProblem p = makeDbbGemm(256, 1152, 128, 4, 4, rng);
    const auto model = makeArrayModel(cfg);
    RunOptions opt;
    opt.compute_output = false;
    opt.engine = engine;
    for (auto _ : state)
        benchmark::DoNotOptimize(model->run(p, opt));
    state.SetLabel(cfg.name() +
                   (engine == EngineKind::Scalar ? " scalar"
                                                 : " dbb-fast"));
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_SimulateArch)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 4, 1),
                   {static_cast<int>(EngineKind::Scalar),
                    static_cast<int>(EngineKind::DbbFast)}})
    ->Unit(benchmark::kMillisecond);

void
BM_SimulateSmtDepthwise(benchmark::State &state)
{
    // One depthwise group as a grouped layer lowers it (N = 1,
    // K = 9, one row per output pixel of a 112x112 map), events
    // only from a pre-built plan: the SMT sampler and its sample
    // schedule are all that runs, and the repeated calls stand for
    // a layer's identically shaped groups.
    const auto engine = static_cast<EngineKind>(state.range(0));
    Rng rng(13);
    const GemmProblem p =
        makeUnstructuredGemm(112 * 112, 9, 1, 0.5, 0.5, rng);
    const GemmPlan plan = engine == EngineKind::Scalar
                              ? GemmPlan::shallow(p)
                              : GemmPlan::build(p, 8, false);
    const auto model = makeArrayModel(ArrayConfig::saSmt(2));
    RunOptions opt;
    opt.compute_output = false;
    opt.validate_operands = false;
    opt.engine = engine;
    for (auto _ : state)
        benchmark::DoNotOptimize(model->run(plan, opt));
    state.SetLabel(engine == EngineKind::Scalar ? "scalar"
                                                : "dbb-fast");
}
BENCHMARK(BM_SimulateSmtDepthwise)
    ->Arg(static_cast<int>(EngineKind::Scalar))
    ->Arg(static_cast<int>(EngineKind::DbbFast))
    ->Unit(benchmark::kMicrosecond);

void
BM_SimulateFunctional(benchmark::State &state)
{
    // Whole-GEMM simulation including the functional output: this
    // is the path bench_engine_throughput measures end to end.
    const auto engine = static_cast<EngineKind>(state.range(0));
    Rng rng(12);
    GemmProblem p = makeDbbGemm(256, 1152, 128, 4, 4, rng);
    const auto model = makeArrayModel(ArrayConfig::s2taAw(4));
    RunOptions opt;
    opt.compute_output = true;
    opt.engine = engine;
    opt.validate_operands = false;
    for (auto _ : state)
        benchmark::DoNotOptimize(model->run(p, opt));
    state.SetLabel(engine == EngineKind::Scalar ? "scalar"
                                                : "dbb-fast");
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_SimulateFunctional)
    ->Arg(static_cast<int>(EngineKind::Scalar))
    ->Arg(static_cast<int>(EngineKind::DbbFast))
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace
} // namespace s2ta

BENCHMARK_MAIN();

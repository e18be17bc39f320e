/**
 * @file
 * perfbench: host-time benchmark of the S2TA simulator.
 *
 * One process runs one workload for a fixed measurement window and
 * writes its raw samples as JSON; perfbench/run.py turns them into the
 * benchmark's metrics. Workloads (see perfbench/README.md):
 *
 *  - dense:   serial, uncached functional ResNet-50 on S2TA-AW at the
 *             paper's per-layer profile (dense-mirror kernel);
 *  - sparse:  the same at uniform W 1/8 x A 2/8 (mask-intersection
 *             kernel);
 *  - sweep:   ResNet-50 + MobileNetV1 over 12 design points from an
 *             empty PlanCache, events only, on 4 lanes, energy per
 *             point;
 *  - serving: an open-loop Poisson trace over six registry workloads
 *             replayed against the wall clock on 2 lanes with a warm,
 *             unbounded PlanCache.
 *
 * Host time is the metric; simulated cycles and energy are outputs,
 * checked against the scalar engine (the repository's oracle).
 *
 * With --trace 1 the process runs untraced and traced ops alternately
 * and reports per-stage times; see stages.hh for the span model.
 *
 * Usage: perfbench --workload W --seed N --seconds S --trace 0|1
 *                  [--rate R] --out FILE [--trace-out FILE]
 *        perfbench --workload W --seed N --reference
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/accelerator.hh"
#include "arch/gemm_plan.hh"
#include "arch/plan_cache.hh"
#include "core/dap.hh"
#include "digest.hh"
#include "energy/energy_model.hh"
#include "obs/trace.hh"
#include "serve/model_registry.hh"
#include "serve/wallclock_replay.hh"
#include "stages.hh"
#include "tensor/conv.hh"
#include "workload/model_workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_S2TA_OBS
#define PERFBENCH_S2TA_OBS 1
#endif

namespace perfbench {
namespace {

using namespace s2ta;

/** Set-up repetitions per run; setup_s is their median. A serving
 *  set-up (registry build plus cache warm-up) takes about 10 s, so
 *  serving sets up twice, bounding the length of its runs. */
constexpr int kSetupReps = 3;
constexpr int kServeSetupReps = 2;
/** Lanes of the sweep's design-point runs. */
constexpr int kSweepLanes = 4;
/** Serving lanes of the wall-clock replay. */
constexpr int kServeLanes = 2;
/** Percentile of serve.tail_ms: about 1200 requests in a 15 s run
 *  leave 12 beyond p99, the highest percentile with at least ten. */
constexpr double kServeTailPct = 99.0;
/** Per-thread span capacity of the private tracer. */
constexpr size_t kTraceRing = size_t{1} << 20;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
mix(uint64_t seed, uint64_t domain)
{
    return PlanCache::combine(seed, domain);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Interquartile range over the median, with inclusive-method
 *  quartiles (Python's statistics.quantiles(method="inclusive")). */
double
iqrFrac(std::vector<double> v)
{
    if (v.size() < 2)
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto q = [&](double p) {
        const double pos = p * static_cast<double>(v.size() - 1);
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - lo) * (v[hi] - v[lo]);
    };
    const double m = median(v);
    return m > 0 ? (q(0.75) - q(0.25)) / m : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

// ---- command line ----------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double rate = 0.0;
    std::string out;
    std::string trace_out;
    bool reference = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "dense|sparse|sweep|serving --seed N --seconds S "
                 "--trace 0|1 [--rate R] --out FILE [--trace-out "
                 "FILE]\n       perfbench --workload W --seed N "
                 "--reference\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = val();
        else if (k == "--seed")
            a.seed = std::stoull(val());
        else if (k == "--seconds")
            a.seconds = std::stod(val());
        else if (k == "--trace")
            a.trace = val() != "0";
        else if (k == "--rate")
            a.rate = std::stod(val());
        else if (k == "--out")
            a.out = val();
        else if (k == "--trace-out")
            a.trace_out = val();
        else if (k == "--reference")
            a.reference = true;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (a.workload != "dense" && a.workload != "sparse" &&
        a.workload != "sweep" && a.workload != "serving")
        usage("unknown workload");
    if (!a.reference && (a.out.empty() || !(a.seconds > 0)))
        usage("--out and a positive --seconds are required");
    if (a.workload == "serving" && !a.reference && !(a.rate > 0))
        usage("serving needs a positive --rate");
    return a;
}

// ---- result -----------------------------------------------------------

/** Raw samples of one run, written as one JSON object. */
struct Result
{
    std::vector<double> setup_s;
    std::vector<double> build_s;
    /** Host seconds per op (serving: a request's service time on
     *  its lane; its latency from the scheduled arrival is the
     *  per-layer serve.latency_ms). */
    std::vector<double> op_s;
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Digests of the checked reference results. */
    std::map<std::string, std::string> digests;
    /** Per-layer metrics (traced runs). */
    std::map<std::string, double> layers;
    std::vector<std::string> errors;

    void
    fail(const std::string &msg)
    {
        if (errors.size() < 20)
            errors.push_back(msg);
    }
};

std::string
jsonNumbers(const std::vector<double> &v)
{
    std::ostringstream os;
    os.precision(9);
    os << "[";
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    os << "]";
    return os.str();
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t c = line.find(':');
            if (c != std::string::npos) {
                std::string m = line.substr(c + 1);
                m.erase(0, m.find_first_not_of(' '));
                return m;
            }
        }
    }
    return "unknown";
}

/** CPU features the kernel tiers probe for (x86 only). */
std::string
probedFeatures()
{
    std::string s;
#if defined(__x86_64__)
    const auto add = [&](bool on, const char *name) {
        if (on)
            s += s.empty() ? name : std::string(",") + name;
    };
    __builtin_cpu_init();
    add(__builtin_cpu_supports("ssse3"), "ssse3");
    add(__builtin_cpu_supports("avx2"), "avx2");
    add(__builtin_cpu_supports("avx512bw"), "avx512bw");
    add(__builtin_cpu_supports("avx512vbmi"), "avx512vbmi");
    add(__builtin_cpu_supports("avx512vnni"), "avx512vnni");
    add(__builtin_cpu_supports("avx512vpopcntdq"), "avx512vpopcntdq");
#endif
    return s.empty() ? "none" : s;
}

void
writeResult(const Args &args, const Result &r)
{
    std::ostringstream os;
    os.precision(9);
    os << "{\n  \"workload\": \"" << args.workload << "\",\n"
       << "  \"seed\": " << args.seed << ",\n"
       << "  \"trace\": " << (args.trace ? 1 : 0) << ",\n"
       << "  \"fingerprint\": {\"cpu\": \"" << cpuModel()
       << "\", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"probed\": \"" << probedFeatures()
       << "\", \"dispatched\": \""
       << dbbKernelKindName(dbbActiveKernel())
       << "\", \"compiler\": \"gcc " << __VERSION__
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"s2ta_obs\": " << PERFBENCH_S2TA_OBS << "},\n"
       << "  \"setup_s\": " << jsonNumbers(r.setup_s) << ",\n"
       << "  \"build_s\": " << jsonNumbers(r.build_s) << ",\n"
       << "  \"op_s\": " << jsonNumbers(r.op_s) << ",\n"
       << "  \"peak_rss_mb\": " << peakRssMb() << ",\n"
       << "  \"attempted\": " << r.attempted << ",\n"
       << "  \"failed\": " << r.failed << ",\n"
       << "  \"digests\": {";
    bool first = true;
    for (const auto &[k, v] : r.digests) {
        os << (first ? "" : ", ") << "\"" << k << "\": \"" << v << "\"";
        first = false;
    }
    os << "},\n  \"layers\": {";
    first = true;
    for (const auto &[k, v] : r.layers) {
        os << (first ? "\n    " : ",\n    ") << "\"" << k << "\": "
           << (std::isfinite(v) ? v : 0.0);
        first = false;
    }
    os << "},\n  \"errors\": [";
    for (size_t i = 0; i < r.errors.size(); ++i)
        os << (i ? ", " : "") << "\"" << r.errors[i] << "\"";
    os << "]\n}\n";
    std::ofstream out(args.out);
    out << os.str();
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.out.c_str());
        std::exit(1);
    }
}

// ---- shared pieces ----------------------------------------------------

/** im2col channel alignment the accelerator lowers with. */
int
channelAlign(const ArrayConfig &cfg)
{
    return (cfg.kind == ArchKind::S2taW || cfg.kind == ArchKind::S2taAw)
               ? cfg.bz
               : 1;
}

/** Resident bytes of an encoded plan: both block arrays plus the
 *  dense transposed weight mirror. */
int64_t
planBytes(const GemmPlan &plan)
{
    const int64_t blk = static_cast<int64_t>(sizeof(DbbBlock));
    int64_t b = static_cast<int64_t>(plan.act().vectors()) *
                    plan.act().blocksPerVector() * blk +
                static_cast<int64_t>(plan.wgt().vectors()) *
                    plan.wgt().blocksPerVector() * blk;
    if (plan.wgtDenseT() != nullptr)
        b += static_cast<int64_t>(plan.problem().k) * plan.problem().n;
    return b;
}

std::string
eventsDigest(const NetworkRun &nr)
{
    Digest d;
    digestEvents(d, nr);
    return d.hex();
}

std::string
outputsDigest(const NetworkRun &nr)
{
    Digest d;
    digestOutputs(d, nr);
    return d.hex();
}

NetworkRunOptions
runOptions(bool compute_output, PlanCache *cache,
           EngineKind engine = EngineKind::DbbFast)
{
    NetworkRunOptions opt;
    opt.compute_output = compute_output;
    opt.validate_operands = false;
    opt.engine = engine;
    opt.plan_cache = cache;
    return opt;
}

/**
 * Stage probes: public calls repeated on the inputs of a traced op,
 * outside the op's span, for the parts of prepareLayer and
 * executePrepared that run inside a single library call. Each is
 * timed under a "probe" span so the trace shows them apart.
 */
struct Probe
{
    obs::Tracer &tracer;
    std::map<std::string, double> sum;

    /** Lower and encode one layer as a first sight does; with
     *  @p model, also rerun each plan events-only (the event model's
     *  share of ArrayModel::run) and count the kernel's MACs. */
    void
    lowerAndBuild(const LayerWorkload &wl, const ArrayConfig &acfg,
                  bool compute_output, const ArrayModel *model)
    {
        std::vector<GemmProblem> probs;
        {
            obs::TraceSpan s(tracer, "probe", "im2col");
            const double t0 = now();
            probs = im2colLowerAll(wl.shape, wl.input, wl.weights,
                                   channelAlign(acfg), wl.batch);
            sum["tensor.im2col_s"] += now() - t0;
        }
        for (const GemmProblem &p : probs) {
            sum["tensor.lowered_mb"] +=
                static_cast<double>(p.a.size() + p.w.size()) / 1e6;
            double t0 = 0.0;
            std::unique_ptr<GemmPlan> plan;
            {
                obs::TraceSpan s(tracer, "probe", "plan_build");
                t0 = now();
                plan = std::make_unique<GemmPlan>(
                    GemmPlan::build(p, acfg.bz, compute_output));
                sum["arch.plan_build_s"] += now() - t0;
            }
            sum["arch.plan_builds"] += 1;
            sum["arch.plan_mb"] +=
                static_cast<double>(planBytes(*plan)) / 1e6;
            if (model == nullptr)
                continue;
            RunOptions opt;
            opt.compute_output = false;
            opt.validate_operands = false;
            obs::TraceSpan s(tracer, "probe", "event_model");
            t0 = now();
            (void)model->run(*plan, opt);
            sum["arch.event_model_s"] += now() - t0;
            const OperandProfile &prof = plan->profile();
            sum["arch.kernel_matched_macs"] +=
                static_cast<double>(prof.matched_products);
            sum["arch.kernel_dense_macs"] +=
                static_cast<double>(prof.m) * prof.k * prof.n;
        }
    }

    void
    dap(const LayerWorkload &wl)
    {
        Int8Tensor copy = wl.input;
        obs::TraceSpan s(tracer, "probe", "dap_prune");
        const double t0 = now();
        (void)dapPruneTensor(copy, wl.act_nnz);
        sum["core.dap_prune_s"] += now() - t0;
        sum["core.dap_calls"] += 1;
    }

    void
    fingerprint(const LayerWorkload &wl)
    {
        obs::TraceSpan s(tracer, "probe", "fingerprint");
        const double t0 = now();
        (void)PlanCache::hashBytes(wl.input.data(),
                                   static_cast<size_t>(wl.input.size()));
        (void)PlanCache::hashBytes(wl.weights.data(),
                                   static_cast<size_t>(wl.weights.size()));
        sum["arch.fingerprint_s"] += now() - t0;
        sum["arch.fingerprint_mb"] +=
            static_cast<double>(wl.input.size() + wl.weights.size()) /
            1e6;
    }
};

/**
 * One layer traced through the accelerator's two stages, exactly as
 * runNetwork would run it on one lane: prepareLayer, then
 * executePrepared with the array model wrapped in a TimedModel.
 * Returns the layer's tightened array config, for the probes.
 */
ArrayConfig
tracedLayer(const Accelerator &acc, const LayerWorkload &wl,
            const NetworkRunOptions &opt, obs::Tracer &tracer,
            int64_t index, NetworkRun &nr)
{
    obs::TraceSpan ls(tracer, "bench", "layer", index);
    PreparedLayer prep;
    {
        obs::TraceSpan s(tracer, "arch", "prepare");
        prep = acc.prepareLayer(wl, opt);
    }
    prep.model = std::make_shared<const TimedModel>(prep.model, tracer);
    {
        obs::TraceSpan s(tracer, "arch", "execute");
        nr.add(acc.executePrepared(prep, opt));
    }
    return prep.acfg;
}

/**
 * Traced runs alternate untraced and traced ops, swapping which goes
 * first every pair: at least three pairs, then more while the window
 * lasts, at most eight (bounding the span volume). Each op returns
 * its own host seconds, so probes and checks stay untimed.
 */
void
alternatePairs(double seconds, const std::function<double()> &untraced_op,
               const std::function<double()> &traced_op,
               std::vector<double> &untraced, std::vector<double> &traced)
{
    const double end = now() + seconds;
    while (traced.size() < 3 || (traced.size() < 8 && now() < end)) {
        const bool traced_first = traced.size() % 2 == 1;
        if (!traced_first)
            untraced.push_back(untraced_op());
        traced.push_back(traced_op());
        if (traced_first)
            untraced.push_back(untraced_op());
    }
}

/** Per-layer metrics shared by every traced workload: stage totals
 *  and self times of the traced ops, probe sums, and the comparison
 *  of traced against untraced op time. */
void
reportStages(Result &r, const obs::Tracer &tracer,
             const std::vector<double> &untraced_s,
             const std::vector<double> &traced_s,
             const std::vector<std::map<std::string, double>> &probes)
{
    const obs::Tracer::Stats ts = tracer.stats();
    if (ts.dropped > 0)
        r.fail("trace ring overflowed");
    const StageTable table = StageTable::build(tracer.snapshot());
    std::map<std::string, std::vector<double>> total, self;
    for (const StageTable::Root &root : table.roots) {
        if (root.key != "bench.op")
            continue;
        for (const auto &[k, v] : root.total_s)
            total[k].push_back(v);
        for (const auto &[k, v] : root.self_s)
            self[k].push_back(v);
    }
    const auto med = [](std::map<std::string, std::vector<double>> &m,
                        const std::string &k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : median(it->second);
    };
    r.layers["arch.prepare_s"] = med(total, "arch.prepare");
    r.layers["arch.execute_s"] = med(total, "arch.execute");
    r.layers["arch.gemm_run_s"] = med(total, "arch.gemm_run");
    r.layers["energy.eval_s"] = med(total, "energy.eval");
    r.layers["self.op_s"] = med(self, "bench.op");
    r.layers["self.point_s"] = med(self, "bench.point");
    r.layers["self.layer_s"] = med(self, "bench.layer");
    r.layers["self.prepare_s"] = med(self, "arch.prepare");
    r.layers["self.execute_s"] = med(self, "arch.execute");
    r.layers["self.gemm_run_s"] = med(self, "arch.gemm_run");
    r.layers["self.energy_s"] = med(self, "energy.eval");

    std::map<std::string, std::vector<double>> probe;
    for (const auto &p : probes)
        for (const auto &[k, v] : p)
            probe[k].push_back(v);
    for (const char *k :
         {"tensor.im2col_s", "tensor.lowered_mb", "core.dap_prune_s",
          "core.dap_calls", "arch.fingerprint_s", "arch.fingerprint_mb",
          "arch.plan_build_s", "arch.plan_builds", "arch.plan_mb",
          "arch.event_model_s", "arch.kernel_matched_macs",
          "arch.kernel_dense_macs"})
        r.layers[k] = med(probe, k);

    // Ratio of each traced op to the untraced op of its pair.
    std::vector<double> ratio;
    for (size_t i = 0; i < std::min(untraced_s.size(), traced_s.size());
         ++i)
        ratio.push_back(traced_s[i] / untraced_s[i]);
    r.layers["obs.trace_overhead_frac"] = median(ratio) - 1.0;
    // Stage self times of a traced op sum to its duration by
    // construction; the gap says how far that sum lies from the
    // untraced op, next to the untraced ops' own spread.
    r.layers["obs.reconcile_gap_frac"] =
        median(traced_s) / median(untraced_s) - 1.0;
    r.layers["obs.untraced_spread_frac"] = iqrFrac(untraced_s);
    r.layers["obs.traced_ops"] = static_cast<double>(traced_s.size());
}

// ---- dense / sparse: serial uncached functional ResNet-50 ------------

struct Functional
{
    ModelWorkload mw;
    std::unique_ptr<Accelerator> acc;
};

Functional
setupFunctional(uint64_t seed, bool sparse, double &build_s)
{
    const ModelSpec spec = resNet50();
    // Sparse: uniform W 1/8 x A 2/8, below dbbGemm's dense cutover of
    // 0.5 matched products per block pair. Dense: the paper profile.
    std::vector<LayerSparsity> profile =
        sparse ? std::vector<LayerSparsity>(spec.layers.size(),
                                            LayerSparsity{1, 2})
               : sparsityProfile(spec);
    Rng rng(mix(seed, sparse ? 0x5350ull : 0x4450ull));
    Functional f;
    const double t0 = now();
    f.mw = buildModelWorkload(spec, std::move(profile), rng);
    build_s = now() - t0;
    AcceleratorConfig ac;
    ac.array = ArrayConfig::s2taAw(4);
    ac.sim_threads = 1;
    f.acc = std::make_unique<Accelerator>(ac);
    return f;
}

/** Check a functional run against the oracle: events against the
 *  scalar engine's events-only run, outputs by Freivalds. */
bool
checkFunctional(const Functional &f, const NetworkRun &nr,
                uint64_t seed, Result &r)
{
    const NetworkRun scalar = f.acc->runNetwork(
        f.mw.layers, runOptions(false, nullptr, EngineKind::Scalar));
    bool ok = eventsDigest(scalar) == eventsDigest(nr);
    if (!ok)
        r.fail("events differ from the scalar engine");
    const int align = channelAlign(f.acc->config().array);
    for (size_t i = 0; i < f.mw.layers.size() && ok; ++i) {
        if (!freivaldsLayer(f.mw.layers[i], nr.layers[i], align,
                            mix(seed, i))) {
            r.fail("output of layer " + f.mw.layers[i].name +
                   " fails the Freivalds check");
            ok = false;
        }
    }
    return ok;
}

void
runFunctional(const Args &args, Result &r)
{
    const bool sparse = args.workload == "sparse";
    Functional f;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        f = Functional{}; // release the previous set-up first
        double build_s = 0.0;
        const double t0 = now();
        f = setupFunctional(args.seed, sparse, build_s);
        r.setup_s.push_back(now() - t0);
        r.build_s.push_back(build_s);
    }
    const NetworkRunOptions opt = runOptions(true, nullptr);

    // Untimed first op: warms the process and is the checked result
    // every timed op must reproduce bitwise.
    const NetworkRun first = f.acc->runNetwork(f.mw.layers, opt);
    const bool first_ok = checkFunctional(f, first, args.seed, r);
    const std::string ev = eventsDigest(first);
    const std::string out = outputsDigest(first);
    r.digests["events"] = ev;
    r.digests["outputs"] = out;
    const auto check = [&](const NetworkRun &nr) {
        ++r.attempted;
        if (!first_ok || eventsDigest(nr) != ev ||
            outputsDigest(nr) != out) {
            ++r.failed;
            r.fail("op result differs from the checked result");
        }
    };

    const auto untraced_op = [&] {
        const double t0 = now();
        const NetworkRun nr = f.acc->runNetwork(f.mw.layers, opt);
        const double dt = now() - t0;
        check(nr);
        return dt;
    };
    if (!args.trace) {
        const double end = now() + args.seconds;
        while (now() < end)
            r.op_s.push_back(untraced_op());
        return;
    }

    obs::Tracer tracer(kTraceRing);
    tracer.setEnabled(true);
    std::vector<double> untraced, traced;
    std::vector<std::map<std::string, double>> probes;
    const auto traced_op = [&] {
        std::vector<ArrayConfig> acfgs;
        NetworkRun nr;
        const double t0 = now();
        {
            obs::TraceSpan op(tracer, "bench", "op");
            for (size_t i = 0; i < f.mw.layers.size(); ++i)
                acfgs.push_back(tracedLayer(*f.acc, f.mw.layers[i], opt,
                                            tracer,
                                            static_cast<int64_t>(i), nr));
        }
        const double dt = now() - t0;
        check(nr);

        obs::TraceSpan ps(tracer, "bench", "probe");
        Probe probe{tracer, {}};
        for (size_t i = 0; i < f.mw.layers.size(); ++i) {
            const LayerWorkload &wl = f.mw.layers[i];
            const std::unique_ptr<ArrayModel> model =
                makeArrayModel(acfgs[i]);
            probe.lowerAndBuild(wl, acfgs[i], true, model.get());
            if (acfgs[i].kind == ArchKind::S2taAw &&
                wl.act_nnz < acfgs[i].bz)
                probe.dap(wl);
        }
        probes.push_back(probe.sum);
        return dt;
    };
    alternatePairs(args.seconds, untraced_op, traced_op, untraced, traced);
    r.op_s = untraced;
    reportStages(r, tracer, untraced, traced, probes);
    r.layers["arch.kernel_s"] =
        r.layers["arch.gemm_run_s"] - r.layers["arch.event_model_s"];
    if (!args.trace_out.empty())
        tracer.writeChromeTrace(args.trace_out);
}

// ---- sweep: design sweep from an empty PlanCache ---------------------

/** The 12-point family: the four baselines, S2TA-W/AW, and the
 *  2x1 / 1x2 / 2x2 scaled S2TA arrays. */
std::vector<ArrayConfig>
sweepConfigs()
{
    std::vector<ArrayConfig> cfgs = {
        ArrayConfig::saZvcg(), ArrayConfig::sa(), ArrayConfig::saSmt(2),
        ArrayConfig::saSmt(4), ArrayConfig::s2taW(),
        ArrayConfig::s2taAw(4)};
    for (const auto &[mx, nx] : {std::pair{2, 1}, {1, 2}, {2, 2}}) {
        for (ArrayConfig cfg :
             {ArrayConfig::s2taW(), ArrayConfig::s2taAw(4)}) {
            cfg.tpe.m *= mx;
            cfg.tpe.n *= nx;
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

struct Sweep
{
    std::vector<ModelWorkload> models;
    std::vector<std::unique_ptr<Accelerator>> accs;
    std::vector<std::unique_ptr<EnergyModel>> energy;
};

Sweep
setupSweep(uint64_t seed, int lanes, double &build_s)
{
    Sweep s;
    Rng rng(mix(seed, 0x5357ull));
    const double t0 = now();
    for (const ModelSpec &spec : {resNet50(), mobileNetV1()})
        s.models.push_back(buildModelWorkload(spec, rng));
    build_s = now() - t0;
    for (const ArrayConfig &cfg : sweepConfigs()) {
        AcceleratorConfig ac;
        ac.array = cfg;
        ac.sim_threads = lanes;
        s.accs.push_back(std::make_unique<Accelerator>(ac));
        s.energy.push_back(
            std::make_unique<EnergyModel>(TechParams::tsmc16(), ac));
    }
    return s;
}

/** Digest of one sweep point: every event plus the energy. */
void
digestPoint(Digest &d, const NetworkRun &nr, const EnergyBreakdown &e)
{
    digestEvents(d, nr);
    d.bytes(e.pj.data(), sizeof(double) * e.pj.size());
}

/** One full sweep; returns the digest of all points. */
std::string
sweepOp(const Sweep &s, EngineKind engine)
{
    PlanCache cache;
    const NetworkRunOptions opt = runOptions(false, &cache, engine);
    Digest d;
    for (const ModelWorkload &mw : s.models) {
        for (size_t c = 0; c < s.accs.size(); ++c) {
            const NetworkRun nr = s.accs[c]->runNetwork(mw.layers, opt);
            digestPoint(d, nr, s.energy[c]->energy(nr.total));
        }
    }
    return d.hex();
}

void
cacheMetrics(Result &r, const std::vector<PlanCache::Stats> &st)
{
    const auto med = [&](auto field) {
        std::vector<double> v;
        for (const PlanCache::Stats &s : st)
            v.push_back(field(s));
        return median(v);
    };
    r.layers["arch.cache_hits"] = med([](auto &s) { return s.hits; });
    r.layers["arch.cache_misses"] = med([](auto &s) { return s.misses; });
    r.layers["arch.cache_spill_hits"] =
        med([](auto &s) { return s.spill_hits; });
    r.layers["arch.cache_evictions"] =
        med([](auto &s) { return s.evictions; });
    r.layers["arch.cache_hit_ratio"] = med([](auto &s) {
        const double n = static_cast<double>(s.hits + s.misses);
        return n > 0 ? s.hits / n : 0.0;
    });
    r.layers["arch.cache_resident_mb"] =
        med([](auto &s) { return s.resident_bytes / 1e6; });
}

void
runSweep(const Args &args, Result &r)
{
    const int lanes = args.trace ? 1 : kSweepLanes;
    Sweep s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s = Sweep{};
        double build_s = 0.0;
        const double t0 = now();
        s = setupSweep(args.seed, lanes, build_s);
        r.setup_s.push_back(now() - t0);
        r.build_s.push_back(build_s);
    }
    const std::string ref = sweepOp(s, EngineKind::Scalar);
    const std::string first = sweepOp(s, EngineKind::DbbFast);
    const bool first_ok = first == ref;
    if (!first_ok)
        r.fail("sweep differs from the scalar engine");
    r.digests["events"] = first;
    const auto check = [&](const std::string &d) {
        ++r.attempted;
        if (!first_ok || d != first) {
            ++r.failed;
            r.fail("sweep op differs from the checked result");
        }
    };

    const auto untraced_op = [&] {
        const double t0 = now();
        const std::string d = sweepOp(s, EngineKind::DbbFast);
        const double dt = now() - t0;
        check(d);
        return dt;
    };
    if (!args.trace) {
        const double end = now() + args.seconds;
        while (now() < end)
            r.op_s.push_back(untraced_op());
        return;
    }

    // Traced: serial untraced and traced sweeps alternately, so the
    // stage split is the serial one and overhead is measured pairwise.
    obs::Tracer tracer(kTraceRing);
    tracer.setEnabled(true);
    std::vector<double> untraced, traced;
    std::vector<std::map<std::string, double>> probes;
    std::vector<PlanCache::Stats> stats;
    const auto traced_op = [&] {
        PlanCache cache;
        const NetworkRunOptions opt = runOptions(false, &cache);
        // Layers whose prepare built plans, and layers whose execute
        // ran the DAP (memo misses), for the probes below.
        std::vector<std::pair<const LayerWorkload *, ArrayConfig>> built,
            pruned;
        Digest d;
        const double t0 = now();
        {
            obs::TraceSpan op(tracer, "bench", "op");
            for (const ModelWorkload &mw : s.models) {
                for (size_t c = 0; c < s.accs.size(); ++c) {
                    obs::TraceSpan ps(tracer, "bench", "point",
                                      static_cast<int64_t>(c));
                    NetworkRun nr;
                    for (size_t i = 0; i < mw.layers.size(); ++i) {
                        const PlanCache::Stats before = cache.stats();
                        const ArrayConfig acfg = tracedLayer(
                            *s.accs[c], mw.layers[i], opt, tracer,
                            static_cast<int64_t>(i), nr);
                        const PlanCache::Stats after = cache.stats();
                        if (after.misses > before.misses)
                            built.emplace_back(&mw.layers[i], acfg);
                        if (after.dap_misses > before.dap_misses)
                            pruned.emplace_back(&mw.layers[i], acfg);
                    }
                    EnergyBreakdown e;
                    {
                        obs::TraceSpan es(tracer, "energy", "eval");
                        e = s.energy[c]->energy(nr.total);
                    }
                    digestPoint(d, nr, e);
                }
            }
        }
        const double dt = now() - t0;
        check(d.hex());
        stats.push_back(cache.stats());

        obs::TraceSpan ps(tracer, "bench", "probe");
        Probe probe{tracer, {}};
        for (const auto &[wl, acfg] : built)
            probe.lowerAndBuild(*wl, acfg, false, nullptr);
        for (const auto &[wl, acfg] : pruned)
            probe.dap(*wl);
        for (const ModelWorkload &mw : s.models)
            for (size_t c = 0; c < s.accs.size(); ++c)
                for (const LayerWorkload &wl : mw.layers)
                    probe.fingerprint(wl);
        probes.push_back(probe.sum);
        return dt;
    };
    alternatePairs(args.seconds, untraced_op, traced_op, untraced, traced);
    r.op_s = untraced;
    reportStages(r, tracer, untraced, traced, probes);
    // Events only: ArrayModel::run is all event model, no kernel.
    r.layers["arch.event_model_s"] = r.layers["arch.gemm_run_s"];
    r.layers["arch.kernel_s"] = 0.0;
    cacheMetrics(r, stats);
    if (!args.trace_out.empty())
        tracer.writeChromeTrace(args.trace_out);
}

// ---- serving: open-loop wall-clock replay ----------------------------

struct Serving
{
    std::unique_ptr<serve::ModelRegistry> registry;
    std::vector<const ModelWorkload *> models;
    std::vector<std::string> names;
    std::unique_ptr<PlanCache> cache;
    std::unique_ptr<Accelerator> acc;
};

/** Registry build plus one warming run per workload, so the cache
 *  holds every plan before the first request arrives. */
Serving
setupServing(uint64_t seed, double &build_s)
{
    Serving s;
    s.registry = std::make_unique<serve::ModelRegistry>(mix(seed, 0x5256ull));
    build_s = 0.0;
    for (const char *model : {"resnet50", "alexnet", "mobilenetv1"}) {
        for (int batch : {1, 2}) {
            const double t0 = now();
            s.models.push_back(&s.registry->workload(model, batch));
            build_s += now() - t0;
            s.names.push_back(std::string(model) + "/b" +
                              std::to_string(batch));
        }
    }
    s.cache = std::make_unique<PlanCache>();
    AcceleratorConfig ac;
    ac.array = ArrayConfig::s2taAw(4);
    ac.sim_threads = 1;
    s.acc = std::make_unique<Accelerator>(ac);
    const NetworkRunOptions opt = runOptions(false, s.cache.get());
    for (const ModelWorkload *mw : s.models)
        (void)s.acc->runNetwork(mw->layers, opt);
    return s;
}

/** Open-loop Poisson arrivals at @p rate over @p seconds; requests
 *  cycle through the workloads in registry order. */
std::vector<serve::WallclockRequest>
makeTrace(const Serving &s, uint64_t seed, double rate, double seconds)
{
    Rng rng(mix(seed, 0x5452ull));
    std::vector<serve::WallclockRequest> trace;
    double t = 0.0;
    for (size_t i = 0;; ++i) {
        t += -std::log(1.0 - rng.uniformReal(0.0, 1.0)) / rate;
        if (t >= seconds)
            break;
        serve::WallclockRequest req;
        req.model = s.models[i % s.models.size()];
        req.stream = static_cast<int>(i % s.models.size());
        req.arrival_s = t;
        trace.push_back(req);
    }
    return trace;
}

void
runServing(const Args &args, Result &r)
{
    Serving s;
    for (int rep = 0; rep < kServeSetupReps; ++rep) {
        s = Serving{};
        double build_s = 0.0;
        const double t0 = now();
        s = setupServing(args.seed, build_s);
        r.setup_s.push_back(now() - t0);
        r.build_s.push_back(build_s);
    }

    // Reference per workload: the scalar engine, events only.
    std::vector<std::string> ref;
    for (size_t w = 0; w < s.models.size(); ++w) {
        ref.push_back(eventsDigest(s.acc->runNetwork(
            s.models[w]->layers,
            runOptions(false, nullptr, EngineKind::Scalar))));
        r.digests["events." + s.names[w]] = ref.back();
    }

    const std::vector<serve::WallclockRequest> trace =
        makeTrace(s, args.seed, args.rate, args.seconds);
    serve::WallclockReplayOptions ropt;
    ropt.run = runOptions(false, s.cache.get());
    ropt.lanes = kServeLanes;
    const PlanCache::Stats before = s.cache->stats();
    const std::vector<serve::WallclockCompletion> done =
        serve::replayWallclock(*s.acc, trace, ropt);
    const PlanCache::Stats after = s.cache->stats();

    const auto check = [&](const NetworkRun &nr, size_t w) {
        ++r.attempted;
        if (eventsDigest(nr) != ref[w]) {
            ++r.failed;
            r.fail("a " + s.names[w] + " request differs from the "
                   "reference");
        }
    };
    std::vector<double> latency, wait, late;
    std::vector<std::vector<double>> service_by_model(s.models.size());
    for (const serve::WallclockCompletion &c : done) {
        const size_t w = static_cast<size_t>(c.stream);
        check(c.run, w);
        r.op_s.push_back(c.finish_s - c.start_s);
        service_by_model[w].push_back(c.finish_s - c.start_s);
        latency.push_back(c.finish_s - c.arrival_s);
        wait.push_back(c.start_s - c.arrival_s);
        late.push_back(c.enqueue_s - c.arrival_s);
    }
    if (!args.trace)
        return;

    r.layers["serve.requests"] = static_cast<double>(trace.size());
    r.layers["serve.completed"] =
        static_cast<double>(r.attempted - r.failed);
    r.layers["serve.failed"] = static_cast<double>(r.failed);
    std::sort(latency.begin(), latency.end());
    if (!latency.empty()) {
        const size_t rank = static_cast<size_t>(std::ceil(
            kServeTailPct / 100.0 * static_cast<double>(latency.size())));
        r.layers["serve.tail_ms"] = latency[std::max<size_t>(rank, 1) - 1] * 1e3;
    }
    r.layers["serve.latency_ms"] = median(latency) * 1e3;
    r.layers["serve.queue_wait_ms"] = median(wait) * 1e3;
    r.layers["serve.service_ms"] = median(r.op_s) * 1e3;
    r.layers["serve.generator_late_ms"] =
        (late.empty() ? 0.0 : *std::max_element(late.begin(), late.end())) *
        1e3;
    PlanCache::Stats delta = after;
    delta.hits -= before.hits;
    delta.misses -= before.misses;
    delta.spill_hits -= before.spill_hits;
    delta.evictions -= before.evictions;

    // Stage split: one op is one request per workload, served
    // serially on the warm cache, untraced and traced alternately.
    obs::Tracer tracer(kTraceRing);
    tracer.setEnabled(true);
    const NetworkRunOptions opt = runOptions(false, s.cache.get());
    std::vector<double> untraced, traced;
    std::vector<std::map<std::string, double>> probes;
    const auto untraced_op = [&] {
        std::vector<NetworkRun> runs(s.models.size());
        const double t0 = now();
        for (size_t w = 0; w < s.models.size(); ++w)
            runs[w] = s.acc->runNetwork(s.models[w]->layers, opt);
        const double dt = now() - t0;
        for (size_t w = 0; w < s.models.size(); ++w)
            check(runs[w], w);
        return dt;
    };
    const auto traced_op = [&] {
        std::vector<NetworkRun> runs(s.models.size());
        const double t0 = now();
        {
            obs::TraceSpan op(tracer, "bench", "op");
            for (size_t w = 0; w < s.models.size(); ++w) {
                obs::TraceSpan rs(tracer, "bench", "point",
                                  static_cast<int64_t>(w));
                for (size_t i = 0; i < s.models[w]->layers.size(); ++i)
                    (void)tracedLayer(*s.acc, s.models[w]->layers[i],
                                      opt, tracer,
                                      static_cast<int64_t>(i), runs[w]);
            }
        }
        const double dt = now() - t0;
        for (size_t w = 0; w < s.models.size(); ++w)
            check(runs[w], w);

        obs::TraceSpan ps(tracer, "bench", "probe");
        Probe probe{tracer, {}};
        for (const ModelWorkload *mw : s.models)
            for (const LayerWorkload &wl : mw->layers)
                probe.fingerprint(wl);
        probes.push_back(probe.sum);
        return dt;
    };
    alternatePairs(args.seconds, untraced_op, traced_op, untraced, traced);
    reportStages(r, tracer, untraced, traced, probes);
    // How much slower a request is served on the replay's concurrent
    // lanes than alone: the replay's median service time per
    // workload, summed, over the serial untraced op.
    double replay_cycle = 0.0;
    for (const auto &v : service_by_model)
        replay_cycle += median(v);
    r.layers["serve.contention_frac"] = replay_cycle / median(untraced) - 1.0;
    r.layers["arch.event_model_s"] = r.layers["arch.gemm_run_s"];
    r.layers["arch.kernel_s"] = 0.0;
    cacheMetrics(r, {delta});
    if (!args.trace_out.empty())
        tracer.writeChromeTrace(args.trace_out);
}

// ---- reference mode ---------------------------------------------------

/** Scalar-engine digests of a seed's results, printed as JSON: the
 *  recorded reference of perfbench/reference.json. */
void
printReference(const Args &args)
{
    std::map<std::string, std::string> dg;
    double build_s = 0.0;
    if (args.workload == "dense" || args.workload == "sparse") {
        const Functional f =
            setupFunctional(args.seed, args.workload == "sparse", build_s);
        const NetworkRun nr = f.acc->runNetwork(
            f.mw.layers, runOptions(true, nullptr, EngineKind::Scalar));
        dg["events"] = eventsDigest(nr);
        dg["outputs"] = outputsDigest(nr);
    } else if (args.workload == "sweep") {
        const Sweep s = setupSweep(args.seed, kSweepLanes, build_s);
        dg["events"] = sweepOp(s, EngineKind::Scalar);
    } else {
        const Serving s = setupServing(args.seed, build_s);
        for (size_t w = 0; w < s.models.size(); ++w)
            dg["events." + s.names[w]] = eventsDigest(s.acc->runNetwork(
                s.models[w]->layers,
                runOptions(false, nullptr, EngineKind::Scalar)));
    }
    std::printf("{");
    bool first = true;
    for (const auto &[k, v] : dg) {
        std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                    v.c_str());
        first = false;
    }
    std::printf("}\n");
}

} // anonymous namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    if (args.reference) {
        printReference(args);
        return 0;
    }
    Result r;
    if (args.workload == "dense" || args.workload == "sparse")
        runFunctional(args, r);
    else if (args.workload == "sweep")
        runSweep(args, r);
    else
        runServing(args, r);
    writeResult(args, r);
    return 0;
}

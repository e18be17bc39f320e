/**
 * @file
 * Output checks of the benchmark: content digests of NetworkRun
 * results and a randomized (Freivalds) check of functional outputs.
 *
 * The digest is the benchmark's own FNV-1a/splitmix construction, not
 * PlanCache::hashBytes: the simulator's fingerprint function is one of
 * the measured layers, and a later change to it must not move the
 * recorded reference digests.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/accelerator.hh"
#include "tensor/conv.hh"

namespace perfbench {

/** Order-dependent 64-bit content digest. */
class Digest
{
  public:
    /** FNV-1a over 8-byte strides, then the byte tail. */
    void
    bytes(const void *data, size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        size_t i = 0;
        for (; i + 8 <= len; i += 8) {
            uint64_t w;
            std::memcpy(&w, p + i, 8);
            h_ ^= w;
            h_ *= 0x100000001b3ull;
        }
        for (; i < len; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }

    void i64(int64_t v) { bytes(&v, sizeof v); }

    void
    str(const std::string &s)
    {
        i64(static_cast<int64_t>(s.size()));
        bytes(s.data(), s.size());
    }

    void
    events(const s2ta::EventCounts &ev)
    {
        for (int64_t v :
             {ev.cycles, ev.logical_macs, ev.macs_executed,
              ev.macs_zero, ev.macs_gated, ev.operand_reg_bytes,
              ev.operand_reg_gated_bytes, ev.accum_updates,
              ev.accum_gated, ev.fifo_pushes, ev.fifo_pops,
              ev.mux_selects, ev.wgt_sram_bytes,
              ev.act_sram_read_bytes, ev.act_sram_write_bytes,
              ev.dap_comparisons, ev.actfn_elements, ev.dma_bytes})
            i64(v);
    }

    uint64_t
    value() const
    {
        // splitmix64 finalizer: spreads the last bytes over all bits.
        uint64_t x = h_;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        return x;
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(value()));
        return buf;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Every simulated statistic of a run: per-layer records, totals and
 *  the fault fields. Functional outputs are not included. */
inline void
digestEvents(Digest &d, const s2ta::NetworkRun &nr)
{
    d.i64(static_cast<int64_t>(nr.layers.size()));
    for (const s2ta::LayerRun &lr : nr.layers) {
        d.str(lr.name);
        d.events(lr.events);
        for (int64_t v :
             {lr.dense_macs, static_cast<int64_t>(lr.act_nnz_used),
              static_cast<int64_t>(lr.memory_bound),
              lr.compute_cycles, static_cast<int64_t>(lr.batch),
              lr.h2d_bytes, lr.d2h_bytes})
            d.i64(v);
    }
    d.events(nr.total);
    for (int64_t v : {nr.dense_macs, static_cast<int64_t>(nr.fault_layer),
                      nr.fault_count, nr.stall_events, nr.stall_cycles})
        d.i64(v);
}

/** The functional output tensors of a run, in layer order. */
inline void
digestOutputs(Digest &d, const s2ta::NetworkRun &nr)
{
    for (const s2ta::LayerRun &lr : nr.layers) {
        for (int dim : lr.output.shape())
            d.i64(dim);
        d.bytes(lr.output.data(),
                static_cast<size_t>(lr.output.size()) * sizeof(int32_t));
    }
}

/**
 * Freivalds check of one layer's functional output: for random
 * vectors r, (A W) r == A (W r) over the lowered GEMM of every
 * group, in wrapping 32-bit arithmetic (the simulator's INT32
 * accumulators wrap). O(mk + kn + mn) per vector instead of the
 * O(mkn) of a reference GEMM. Batch-1 layers only.
 */
inline bool
freivaldsLayer(const s2ta::LayerWorkload &wl, const s2ta::LayerRun &lr,
               int channel_align, uint64_t seed)
{
    const s2ta::Conv2dShape &s = wl.shape;
    if (wl.batch != 1 || lr.output.size() !=
                             static_cast<int64_t>(s.outH()) * s.outW() *
                                 s.out_c)
        return false;
    const std::vector<s2ta::GemmProblem> probs = s2ta::im2colLowerAll(
        s, wl.input, wl.weights, channel_align, wl.batch);
    const int gout = s.groupOutC();
    const int32_t *out = lr.output.data();
    uint64_t state = seed;
    const auto next = [&state] {
        state += 0x9e3779b97f4a7c15ull;
        uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return static_cast<uint32_t>(z ^ (z >> 31));
    };
    for (int g = 0; g < static_cast<int>(probs.size()); ++g) {
        const s2ta::GemmProblem &p = probs[static_cast<size_t>(g)];
        for (int trial = 0; trial < 2; ++trial) {
            std::vector<uint32_t> r(static_cast<size_t>(p.n));
            for (uint32_t &x : r)
                x = next() | 1u; // odd: invertible mod 2^32
            std::vector<uint32_t> wr(static_cast<size_t>(p.k), 0);
            for (int kk = 0; kk < p.k; ++kk) {
                const int8_t *row = &p.w[static_cast<size_t>(kk) * p.n];
                uint32_t acc = 0;
                for (int j = 0; j < p.n; ++j)
                    acc += static_cast<uint32_t>(row[j]) * r[static_cast<size_t>(j)];
                wr[static_cast<size_t>(kk)] = acc;
            }
            for (int i = 0; i < p.m; ++i) {
                const int8_t *arow = &p.a[static_cast<size_t>(i) * p.k];
                uint32_t lhs = 0;
                for (int kk = 0; kk < p.k; ++kk)
                    lhs += static_cast<uint32_t>(arow[kk]) *
                           wr[static_cast<size_t>(kk)];
                const int32_t *orow =
                    out + static_cast<size_t>(i) * s.out_c +
                    static_cast<size_t>(g) * gout;
                uint32_t rhs = 0;
                for (int j = 0; j < p.n; ++j)
                    rhs += static_cast<uint32_t>(orow[j]) *
                           r[static_cast<size_t>(j)];
                if (lhs != rhs)
                    return false;
            }
        }
    }
    return true;
}

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH

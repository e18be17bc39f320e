#include <algorithm>
#include <bit>
#include <cstring>

#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "core/dbb.hh"

namespace s2ta {

namespace {

/** Everything the SMT sample schedule is a pure function of. */
struct ScheduleKey
{
    uint64_t seed = 0;
    int m = 0;
    int n = 0;
    int row_tiles = 0;
    int col_tiles = 0;
    int eff_rows = 0;
    int eff_cols = 0;
    int sim_tiles = 0;
    int samples = 0;

    bool operator==(const ScheduleKey &) const = default;
};

/** Sampled PE coordinates, tile-major (sim_tiles x samples). */
struct SampleSchedule
{
    ScheduleKey key;
    std::vector<int> pe_i;
    std::vector<int> pe_j;
};

/**
 * The sample schedule for @p key: a tile drawn uniformly from the
 * grid, then key.samples PEs drawn uniformly inside it, sim_tiles
 * times. One entry is memoised per thread, because a grouped layer
 * asks for the same key once per group, back to back on each lane;
 * the Rng is built only when a schedule is drawn. The returned
 * reference stays valid until this thread's next call.
 */
const SampleSchedule &
sampleSchedule(const ScheduleKey &key)
{
    thread_local SampleSchedule memo;
    if (!memo.pe_i.empty() && memo.key == key)
        return memo;
    memo.key = key;
    const size_t n = static_cast<size_t>(key.sim_tiles) * key.samples;
    memo.pe_i.resize(n);
    memo.pe_j.resize(n);
    Rng rng(key.seed);
    for (int s = 0; s < key.sim_tiles; ++s) {
        const int tr = static_cast<int>(
            rng.uniformInt(0, key.row_tiles - 1));
        const int tc = static_cast<int>(
            rng.uniformInt(0, key.col_tiles - 1));
        const int row0 = tr * key.eff_rows;
        const int col0 = tc * key.eff_cols;
        const int rows = std::min(key.eff_rows, key.m - row0);
        const int cols = std::min(key.eff_cols, key.n - col0);
        for (int t = 0; t < key.samples; ++t) {
            const size_t slot =
                static_cast<size_t>(s) * key.samples + t;
            memo.pe_i[slot] = row0 + static_cast<int>(
                                         rng.uniformInt(0, rows - 1));
            memo.pe_j[slot] = col0 + static_cast<int>(
                                         rng.uniformInt(0, cols - 1));
        }
    }
    return memo;
}

/**
 * AND one activation row's and one weight column's @p nb block
 * masks into the first ceil(nb * bz / 64) words of a K-bit match
 * bitset (bit kk set when both operands are non-zero at position
 * kk; tail padding bits are never set in a mask, so the set ends at
 * K). Words past those are left alone: the caller zeroes them once.
 * With bz = 8 the mask bytes already are the bitset on a
 * little-endian host; other block sizes pack one shift-or per block.
 */
void
matchBits(const Mask8 *arow, const Mask8 *wcol, int nb, int bz,
          uint64_t *out)
{
    if (bz == 8 && std::endian::native == std::endian::little) {
        int b = 0;
        for (; b + 8 <= nb; b += 8) {
            uint64_t a;
            uint64_t w;
            std::memcpy(&a, arow + b, 8);
            std::memcpy(&w, wcol + b, 8);
            out[b / 8] = a & w;
        }
        if (b < nb) {
            uint64_t tail = 0;
            for (int e = 0; b + e < nb; ++e)
                tail |= uint64_t{maskAnd(arow[b + e], wcol[b + e])}
                        << (8 * e);
            out[b / 8] = tail;
        }
        return;
    }
    std::fill(out, out + (nb * bz + 63) / 64, 0);
    for (int b = 0; b < nb; ++b) {
        const uint64_t m = maskAnd(arow[b], wcol[b]);
        const unsigned pos = static_cast<unsigned>(b * bz);
        const unsigned sh = pos % 64;
        out[pos / 64] |= m << sh;
        if (sh + bz > 64)
            out[pos / 64 + 1] |= m >> (64 - sh);
    }
}

/** 64 bits of @p bits from bit @p off (reads word off/64 + 1). */
inline uint64_t
window(const uint64_t *bits, unsigned off)
{
    const unsigned sh = off % 64;
    const uint64_t *w = bits + off / 64;
    return (w[0] >> sh) | ((w[1] << 1) << (63 - sh));
}

inline int
bitAt(const uint64_t *bits, unsigned off)
{
    return static_cast<int>((bits[off / 64] >> (off % 64)) & 1);
}

/**
 * Queue cycles of one sampled PE from its match bitset. Thread th
 * delivers slot sl's pair from bit th*spt + sl, so 64 slots of every
 * thread come from T shifted 64-bit windows; their OR marks the
 * slots where anything arrives. A run of empty slots is one
 * countr_zero and one idle() step, and each non-empty slot is one
 * slot() step: O(K/64) words plus O(non-empty slots) per PE.
 */
int64_t
peCycles(const uint64_t *match, int threads, int spt, int queue_depth)
{
    SaSmtModel::QueueStep q{queue_depth};
    for (int sl0 = 0; sl0 < spt; sl0 += 64) {
        const int len = std::min(64, spt - sl0);
        uint64_t any = 0;
        for (int th = 0; th < threads; ++th)
            any |= window(match,
                          static_cast<unsigned>(th * spt + sl0));
        if (len < 64)
            any &= (uint64_t{1} << len) - 1;
        int pos = 0;
        for (; any != 0; any &= any - 1) {
            const int sl = std::countr_zero(any);
            q.idle(sl - pos);
            int arr = 0;
            for (int th = 0; th < threads; ++th)
                arr += bitAt(match, static_cast<unsigned>(
                                        th * spt + sl0 + sl));
            q.slot(arr);
            pos = sl + 1;
        }
        q.idle(len - pos);
    }
    return q.drained();
}

} // anonymous namespace

SaSmtModel::SaSmtModel(ArrayConfig cfg_) : ArrayModel(cfg_)
{
    s2ta_assert(cfg.kind == ArchKind::SaSmt, "SaSmtModel kind");
}

int64_t
SaSmtModel::queueCycles(const std::vector<int> &arrivals,
                        int queue_depth)
{
    s2ta_assert(queue_depth >= 1, "queue depth %d", queue_depth);
    int64_t cycles = 0;
    int queue = 0;
    for (int arr : arrivals) {
        s2ta_assert(arr >= 0 && arr <= queue_depth,
                    "arrival count %d outside [0, queue depth %d]",
                    arr, queue_depth);
        // Each cycle the MAC pops one entry; the streams advance
        // (delivering 'arr' non-zero pairs) only once the FIFO has
        // room for all of them, otherwise the wavefront stalls.
        while (true) {
            ++cycles;
            if (queue > 0)
                --queue;
            if (queue + arr <= queue_depth) {
                queue += arr;
                break;
            }
        }
    }
    // Drain what is still queued after the streams finish.
    cycles += queue;
    return cycles;
}

void
SaSmtModel::simulate(const GemmPlan &plan, const RunOptions &opt,
                     GemmRun &out) const
{
    const GemmProblem &p = plan.problem();
    const bool scalar = usesScalarEngine(plan, opt);
    OperandProfile scalar_prof;
    const OperandProfile &prof = profileFor(plan, opt, scalar_prof);
    EventCounts &ev = out.events;
    const int tcount = cfg.smt.threads;
    const int qdepth = cfg.smt.queue_depth;
    // Arrival slots per thread: K is split across threads.
    const int slots_per_thread = (p.k + tcount - 1) / tcount;

    // ---- Event totals (exact, closed form) ----------------------
    // Only position-matched non-zero pairs are enqueued and MACed.
    ev.macs_executed = prof.matched_products;
    const int64_t pe_slots =
        static_cast<int64_t>(p.m) * p.n * slots_per_thread;
    // MAC idle cycles burn clock energy only.
    ev.macs_gated = std::max<int64_t>(0, pe_slots - ev.macs_executed);

    // Streams shift every cycle; zero bytes are latch-gated like
    // ZVCG (the zero detection already exists for the skip logic).
    const int64_t moves = 2ll * p.m * p.n * p.k;
    const int64_t active_moves =
        static_cast<int64_t>(p.n) * prof.act_nnz +
        static_cast<int64_t>(p.m) * prof.wgt_nnz;
    ev.operand_reg_bytes = active_moves;
    ev.operand_reg_gated_bytes = moves - active_moves;

    // Staging FIFO: one push and one pop per matched pair.
    ev.fifo_pushes = prof.matched_products;
    ev.fifo_pops = prof.matched_products;

    ev.accum_updates = prof.matched_products;
    ev.accum_gated = std::max<int64_t>(0,
        pe_slots - prof.matched_products);

    const TileGrid grid = tileGrid(p.m, p.n);
    ev.act_sram_read_bytes =
        static_cast<int64_t>(grid.col_tiles) * p.m * p.k;
    ev.wgt_sram_bytes =
        static_cast<int64_t>(grid.row_tiles) * p.k * p.n;
    ev.act_sram_write_bytes = static_cast<int64_t>(p.m) * p.n;
    ev.actfn_elements = static_cast<int64_t>(p.m) * p.n;

    // ---- Tile timing (sampled queue simulation) -----------------
    // The tile finishes when its slowest PE drains; we simulate the
    // queue automaton for a deterministic sample of PEs in a sample
    // of tiles and use the per-tile maximum. The scalar engine counts
    // each slot's arrivals element by element and steps queueCycles
    // per cycle; the fast engine reads the same non-zero tests from
    // the plan's masks as a match bitset and steps QueueStep per
    // slot, so the cycle totals are identical.
    //
    // The schedule depends only on its key, not on the operands, and
    // is drawn serially in the order the serial loop would consume
    // the RNG; the expensive part then fans the sampled tiles across
    // opt.shard_pool when set. Each tile writes only its own
    // worst-PE slot and the per-tile results are reduced in tile
    // order, so the cycle totals are bitwise identical at any lane
    // count (and with the pool off).
    const int64_t total_tiles = grid.tiles();
    const int sim_tiles = static_cast<int>(std::min<int64_t>(
        total_tiles, std::max(1, opt.smt_sample_tiles)));
    const int64_t fill = cfg.tileRows() + cfg.tileCols();
    const int samples = std::max(1, opt.smt_sample_pes);
    const SampleSchedule &sched = sampleSchedule(
        {opt.seed, p.m, p.n, grid.row_tiles, grid.col_tiles,
         grid.eff_rows, grid.eff_cols, sim_tiles, samples});

    std::vector<int64_t> tile_worst(static_cast<size_t>(sim_tiles),
                                    0);
    const auto simTile = [&](int s) {
        const size_t first = static_cast<size_t>(s) * samples;
        const int *pe_i = sched.pe_i.data() + first;
        const int *pe_j = sched.pe_j.data() + first;
        int64_t worst = 0;
        if (scalar) {
            // Thread th owns the contiguous K chunk
            // [th*slots_per_thread, ...).
            std::vector<int> arrivals(
                static_cast<size_t>(slots_per_thread));
            for (int t = 0; t < samples; ++t) {
                for (int sl = 0; sl < slots_per_thread; ++sl) {
                    int arr = 0;
                    for (int th = 0; th < tcount; ++th) {
                        const int kk = th * slots_per_thread + sl;
                        if (kk >= p.k)
                            continue;
                        if (p.actAt(pe_i[t], kk) != 0 &&
                            p.wgtAt(kk, pe_j[t]) != 0)
                            ++arr;
                    }
                    arrivals[static_cast<size_t>(sl)] = arr;
                }
                worst = std::max(worst, queueCycles(arrivals, qdepth));
            }
        } else {
            const MaskMatrix &act = plan.act();
            const MaskMatrix &wgt = plan.wgt();
            const int nb = act.blocksPerVector();
            // Every mask bit, every thread's last slot and one spare
            // word for the shifted window reads.
            const int words = (std::max(nb * plan.bz(),
                                        tcount * slots_per_thread) +
                               63) / 64 + 1;
            std::vector<uint64_t> match(static_cast<size_t>(words));
            for (int t = 0; t < samples; ++t) {
                matchBits(act.vectorMasks(pe_i[t]),
                          wgt.vectorMasks(pe_j[t]), nb, plan.bz(),
                          match.data());
                worst = std::max(worst,
                                 peCycles(match.data(), tcount,
                                          slots_per_thread, qdepth));
            }
        }
        tile_worst[static_cast<size_t>(s)] = worst;
    };
    if (opt.shard_pool != nullptr && sim_tiles > 1) {
        opt.shard_pool->parallelFor(sim_tiles, [&](int64_t s) {
            simTile(static_cast<int>(s));
        });
    } else {
        for (int s = 0; s < sim_tiles; ++s)
            simTile(s);
    }
    int64_t sampled_cycles = 0;
    for (int s = 0; s < sim_tiles; ++s)
        sampled_cycles += tile_worst[static_cast<size_t>(s)] + fill;
    const double mean_tile =
        static_cast<double>(sampled_cycles) / sim_tiles;
    ev.cycles = static_cast<int64_t>(
        std::llround(mean_tile * static_cast<double>(total_tiles)));

    if (!opt.compute_output)
        return;
    referenceOutput(plan, opt, out);
}

} // namespace s2ta

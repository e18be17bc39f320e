#include "arch/plan_store.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>

#include "base/fault_injection.hh"
#include "base/mapped_file.hh"

namespace s2ta {

namespace {

/** On-disk header; every field fixed-width, total 48 bytes. */
struct PlanFileHeader
{
    uint32_t magic = 0;
    uint32_t version = 0;
    uint64_t key = 0;
    uint64_t payload_hash = 0;
    int32_t m = 0, k = 0, n = 0, bz = 0;
    /** Bit 0: dense transposed weight mirror present. */
    uint32_t flags = 0;
    uint32_t reserved = 0;
};

static_assert(sizeof(PlanFileHeader) == 48 &&
              std::is_trivially_copyable_v<PlanFileHeader>);

constexpr uint32_t kPlanStoreMagic = 0x53325054u; // "S2PT"
constexpr uint32_t kFlagDenseMirror = 1u << 0;

/** Dim bound for validation: no real workload comes close, and it
 *  keeps all size arithmetic far from int64 overflow. */
constexpr int64_t kMaxDim = int64_t{1} << 27;

/** Section byte sizes, derivable from the header dims alone (the
 *  image needs no offset table: sections are laid out back to back
 *  in this fixed order). */
struct SectionSizes
{
    int64_t a, w, act_masks, wgt_masks, wgt_t, profile;

    int64_t
    payload() const
    {
        return a + w + act_masks + wgt_masks + wgt_t + profile;
    }
};

SectionSizes
sectionSizes(int64_t m, int64_t k, int64_t n, int64_t nb,
             bool mirror)
{
    SectionSizes s;
    s.a = m * k;
    s.w = k * n;
    s.act_masks = m * nb * static_cast<int64_t>(sizeof(Mask8));
    s.wgt_masks = n * nb * static_cast<int64_t>(sizeof(Mask8));
    s.wgt_t = mirror ? n * k : 0;
    // row_nz[m], col_nz[n], act_nz_at_k[k], wgt_nz_at_k[k], then
    // the three 64-bit nnz / matched-product totals.
    s.profile = (m + n + 2 * k) *
                    static_cast<int64_t>(sizeof(int32_t)) +
                3 * static_cast<int64_t>(sizeof(int64_t));
    return s;
}

/** Append @p len bytes to @p out. */
void
put(std::vector<uint8_t> &out, const void *data, size_t len)
{
    const size_t at = out.size();
    out.resize(at + len);
    if (len > 0)
        std::memcpy(out.data() + at, data, len);
}

/**
 * Append the sections a plan derives from its operands: both mask
 * arrays, the dense mirror when the plan has one, and the profile.
 * The serializer writes them; the deserializer rebuilds the plan
 * from the stored operands and demands these exact bytes back.
 */
void
putDerived(std::vector<uint8_t> &out, const GemmPlan &plan)
{
    const GemmProblem &p = plan.problem();
    const OperandProfile &prof = plan.profile();
    const auto maskBytes = [](const MaskMatrix &mm) {
        return static_cast<size_t>(mm.vectors()) *
               mm.blocksPerVector() * sizeof(Mask8);
    };
    put(out, plan.act().data(), maskBytes(plan.act()));
    put(out, plan.wgt().data(), maskBytes(plan.wgt()));
    if (plan.wgtDenseT() != nullptr)
        put(out, plan.wgtDenseT(), static_cast<size_t>(p.n) * p.k);
    s2ta_assert(prof.row_nz.size() == static_cast<size_t>(p.m) &&
                    prof.col_nz.size() ==
                        static_cast<size_t>(p.n) &&
                    prof.act_nz_at_k.size() ==
                        static_cast<size_t>(p.k) &&
                    prof.wgt_nz_at_k.size() ==
                        static_cast<size_t>(p.k),
                "profile vectors do not match the plan dims");
    for (const std::vector<int32_t> *v :
         {&prof.row_nz, &prof.col_nz, &prof.act_nz_at_k,
          &prof.wgt_nz_at_k})
        put(out, v->data(), v->size() * sizeof(int32_t));
    put(out, &prof.act_nnz, sizeof(int64_t));
    put(out, &prof.wgt_nnz, sizeof(int64_t));
    put(out, &prof.matched_products, sizeof(int64_t));
}

// ---- spill codec helpers --------------------------------------------

void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/**
 * Read one varint in the form putVarint writes: the shortest one (no
 * redundant high zero byte), at most 9 bytes (63 bits). False on a
 * truncated or non-canonical varint.
 */
bool
getVarint(const uint8_t *&p, const uint8_t *end, uint64_t &v)
{
    v = 0;
    for (int shift = 0; shift < 63; shift += 7) {
        if (p == end)
            return false;
        const uint8_t byte = *p++;
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80u) == 0)
            return byte != 0 || shift == 0;
    }
    return false;
}

/**
 * Mask + stored values per block; runs of all-zero blocks collapse
 * to one zero mask byte plus a varint run extension. Zero blocks
 * dominate at high sparsity, so cyclic serving traces spill small.
 * The values are read from the dense operand through
 * @p value_at(vector, k), in ascending position order.
 */
template <typename ValueAt>
void
encodeBlocks(const MaskMatrix &mat, const ValueAt &value_at,
             std::vector<uint8_t> &out)
{
    const Mask8 *masks = mat.data();
    const int nb = mat.blocksPerVector();
    const int64_t total = static_cast<int64_t>(mat.vectors()) * nb;
    for (int64_t i = 0; i < total;) {
        const Mask8 mask = masks[i];
        out.push_back(mask);
        if (mask != 0) {
            const auto v = static_cast<int>(i / nb);
            const int base = static_cast<int>(i % nb) * mat.bz();
            for (Mask8 m = mask; m; m = maskClearLowest(m)) {
                out.push_back(static_cast<uint8_t>(
                    value_at(v, base + maskLowestSetBit(m))));
            }
            ++i;
        } else {
            int64_t run = 1;
            while (i + run < total && masks[i + run] == 0)
                ++run;
            putVarint(out, static_cast<uint64_t>(run - 1));
            i += run;
        }
    }
}

/**
 * Inverse of encodeBlocks for one operand of @p vectors x @p nb
 * blocks: every stored value goes to the dense operand through
 * @p store(vector, k, value). Accepts exactly what encodeBlocks
 * writes: masks within bz bits and clear of the padding tail, a
 * non-zero value under every set bit (the masks mark the
 * non-zeros), zero runs that stay inside the block array and are
 * maximal (never followed by another zero mask), and canonical
 * varints. The encoding is lossless, so an accepted stream
 * reconstructs the operand exactly and re-encodes to the same bytes.
 * Returns false at the first violation, after @p store has seen
 * some prefix of the values.
 */
template <typename Store>
bool
decodeBlocks(const uint8_t *&p, const uint8_t *end, int vectors,
             int nb, int bz, int k, const Store &store)
{
    const int64_t total = static_cast<int64_t>(vectors) * nb;
    bool after_run = false;
    for (int64_t i = 0; i < total;) {
        if (p == end)
            return false;
        const Mask8 mask = *p++;
        if (mask == 0) {
            uint64_t extra = 0;
            if (after_run || !getVarint(p, end, extra) ||
                extra >= static_cast<uint64_t>(total - i))
                return false;
            i += 1 + static_cast<int64_t>(extra);
            after_run = true;
            continue;
        }
        after_run = false;
        if ((mask >> bz) != 0 || end - p < maskPopcount(mask))
            return false;
        const auto v = static_cast<int>(i / nb);
        const int base = static_cast<int>(i % nb) * bz;
        for (Mask8 m = mask; m; m = maskClearLowest(m)) {
            const int kk = base + maskLowestSetBit(m);
            const auto value = static_cast<int8_t>(*p++);
            if (kk >= k || value == 0)
                return false;
            store(v, kk, value);
        }
        ++i;
    }
    return true;
}

constexpr uint8_t kSpillMagic = 0x53; // 'S'
constexpr uint8_t kSpillVersion = 1;

} // anonymous namespace

uint64_t
planStoreChecksum(const void *data, size_t len)
{
    // Four independent FNV-1a streams over interleaved 8-byte
    // strides: each stream is the same xor-multiply fold as
    // PlanCache::hashBytes, but the four multiply chains overlap,
    // so the checksum runs at memcpy-like speed instead of being
    // latency-bound on one 64-bit multiply per stride.
    constexpr uint64_t kPrime = 0x100000001b3ull;
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t h0 = 0xcbf29ce484222325ull;
    uint64_t h1 = 0x84222325cbf29ce4ull;
    uint64_t h2 = 0x9ce484222325cbf2ull;
    uint64_t h3 = 0x25cbf29ce4842223ull;
    size_t i = 0;
    for (; i + 32 <= len; i += 32) {
        uint64_t c0, c1, c2, c3;
        std::memcpy(&c0, p + i, 8);
        std::memcpy(&c1, p + i + 8, 8);
        std::memcpy(&c2, p + i + 16, 8);
        std::memcpy(&c3, p + i + 24, 8);
        h0 = (h0 ^ c0) * kPrime;
        h1 = (h1 ^ c1) * kPrime;
        h2 = (h2 ^ c2) * kPrime;
        h3 = (h3 ^ c3) * kPrime;
    }
    for (; i < len; ++i)
        h0 = (h0 ^ p[i]) * kPrime;
    return PlanCache::combine(
        PlanCache::combine(PlanCache::combine(h0, h1), h2), h3);
}

PlanStore::PlanStore(std::string dir, int64_t size_cap_bytes)
    : store_dir(std::move(dir)), size_cap(size_cap_bytes)
{
    s2ta_assert(!store_dir.empty(), "empty plan-store directory");
    s2ta_assert(size_cap >= 0,
                "plan-store size cap must be >= 0 (0 = uncapped), "
                "got %lld", (long long)size_cap);
    if (!makeDirs(store_dir)) {
        s2ta_fatal("cannot create plan-store directory '%s'",
                   store_dir.c_str());
    }
    sweepTornTemps();
}

int64_t
PlanStore::sweepTornTemps() const
{
    // Opportunistic cleanup of torn writes: a process killed
    // mid-save leaves an unpublished "*.tmp.<pid>" file behind
    // (writeFileAtomic publishes via rename, so these never shadow
    // a real entry — they only accumulate). Sweeping can race a
    // concurrent writer's in-flight temp; that writer's rename then
    // fails and its save() reports false, which the cache treats as
    // "plan stays unpersisted" — benign, and the next process saves
    // it again.
    int64_t swept = 0;
    std::error_code ec;
    std::filesystem::directory_iterator it(store_dir, ec), end;
    while (!ec && it != end) {
        const std::filesystem::path path = it->path();
        if (path.filename().string().find(".tmp.") !=
            std::string::npos) {
            std::error_code rm_ec;
            if (std::filesystem::remove(path, rm_ec) && !rm_ec)
                ++swept;
        }
        it.increment(ec);
    }
    n_torn_swept.fetch_add(swept, std::memory_order_relaxed);
    return swept;
}

void
PlanStore::quarantine(const std::string &path) const
{
    // Rename, not delete: the corrupt bytes stay inspectable, and
    // the ".quar" suffix guarantees load() never maps them again
    // (it only ever opens the exact ".s2ta" path). Racing
    // quarantiners are benign: when two loaders reject the same
    // file, the loser's rename fails with ENOENT because the winner
    // already moved the source aside. That rejection is quarantined
    // all the same, so it counts too.
    std::error_code ec;
    std::filesystem::rename(path, path + ".quar", ec);
    if (!ec || ec == std::errc::no_such_file_or_directory)
        n_quarantined.fetch_add(1, std::memory_order_relaxed);
}

PlanStore::Stats
PlanStore::stats() const
{
    Stats s;
    s.loads = n_loads.load(std::memory_order_relaxed);
    s.rejects = n_rejects.load(std::memory_order_relaxed);
    s.quarantined = n_quarantined.load(std::memory_order_relaxed);
    s.read_faults = n_read_faults.load(std::memory_order_relaxed);
    s.saves = n_saves.load(std::memory_order_relaxed);
    s.save_failures =
        n_save_failures.load(std::memory_order_relaxed);
    s.torn_swept = n_torn_swept.load(std::memory_order_relaxed);
    s.quarantine_removed =
        n_quarantine_removed.load(std::memory_order_relaxed);
    s.evicted_files =
        n_evicted_files.load(std::memory_order_relaxed);
    s.evicted_bytes =
        n_evicted_bytes.load(std::memory_order_relaxed);
    return s;
}

PlanStore::CompactResult
PlanStore::compact(double max_age_s) const
{
    CompactResult res;
    res.torn_swept = sweepTornTemps();

    struct Entry
    {
        std::filesystem::path path;
        int64_t bytes;
        std::filesystem::file_time_type mtime;
    };
    std::vector<Entry> entries;

    std::error_code ec;
    std::filesystem::directory_iterator it(store_dir, ec), end;
    while (!ec && it != end) {
        const std::filesystem::path path = it->path();
        const std::string name = path.filename().string();
        std::error_code fs_ec;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".quar") == 0) {
            if (std::filesystem::remove(path, fs_ec) && !fs_ec)
                ++res.quarantine_removed;
        } else if (name.rfind("plan_", 0) == 0 && name.size() > 5 &&
                   name.compare(name.size() - 5, 5, ".s2ta") == 0) {
            Entry e;
            e.path = path;
            e.bytes = static_cast<int64_t>(
                std::filesystem::file_size(path, fs_ec));
            if (!fs_ec)
                e.mtime =
                    std::filesystem::last_write_time(path, fs_ec);
            if (!fs_ec)
                entries.push_back(std::move(e));
        }
        it.increment(ec);
    }
    n_quarantine_removed.fetch_add(res.quarantine_removed,
                                   std::memory_order_relaxed);

    // Oldest entries go first; equal mtimes (common on fast
    // populates) break ties by filename so the eviction order is
    // deterministic.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path.filename() < b.path.filename();
              });

    int64_t total = 0;
    for (const Entry &e : entries)
        total += e.bytes;

    const auto evict = [&](const Entry &e) {
        std::error_code rm_ec;
        if (std::filesystem::remove(e.path, rm_ec) && !rm_ec) {
            ++res.evicted_files;
            res.evicted_bytes += e.bytes;
            total -= e.bytes;
            return true;
        }
        return false;
    };

    size_t keep_from = 0;
    if (max_age_s > 0.0) {
        const auto now =
            std::filesystem::file_time_type::clock::now();
        const auto horizon =
            now - std::chrono::duration_cast<
                      std::filesystem::file_time_type::duration>(
                      std::chrono::duration<double>(max_age_s));
        while (keep_from < entries.size() &&
               entries[keep_from].mtime < horizon) {
            evict(entries[keep_from]);
            ++keep_from;
        }
    }
    if (size_cap > 0) {
        while (keep_from < entries.size() && total > size_cap) {
            evict(entries[keep_from]);
            ++keep_from;
        }
    }
    n_evicted_files.fetch_add(res.evicted_files,
                              std::memory_order_relaxed);
    n_evicted_bytes.fetch_add(res.evicted_bytes,
                              std::memory_order_relaxed);

    res.files = static_cast<int64_t>(entries.size()) -
                static_cast<int64_t>(keep_from);
    res.bytes = total;
    return res;
}

std::string
PlanStore::pathFor(uint64_t key) const
{
    char name[40];
    std::snprintf(name, sizeof(name), "/plan_%016llx.s2ta",
                  static_cast<unsigned long long>(key));
    return store_dir + name;
}

std::vector<uint8_t>
PlanStore::serialize(uint64_t key, const CachedPlan &entry)
{
    const GemmProblem &p = entry.problem;
    const GemmPlan &plan = entry.plan;
    s2ta_assert(plan.encoded(),
                "only encoded plans are storable (scalar-engine "
                "runs bypass the cache entirely)");
    const int nb = plan.act().blocksPerVector();
    const bool mirror = plan.wgtDenseT() != nullptr;
    const SectionSizes ss = sectionSizes(p.m, p.k, p.n, nb, mirror);

    PlanFileHeader hdr;
    hdr.magic = kPlanStoreMagic;
    hdr.version = kPlanStoreVersion;
    hdr.key = key;
    hdr.m = p.m;
    hdr.k = p.k;
    hdr.n = p.n;
    hdr.bz = plan.bz();
    hdr.flags = mirror ? kFlagDenseMirror : 0;

    std::vector<uint8_t> out;
    out.reserve(sizeof(hdr) + static_cast<size_t>(ss.payload()));
    out.resize(sizeof(hdr)); // hash lands after the payload exists
    put(out, p.a.data(), p.a.size());
    put(out, p.w.data(), p.w.size());
    putDerived(out, plan);
    s2ta_assert(out.size() ==
                    sizeof(hdr) + static_cast<size_t>(ss.payload()),
                "store image size drifted from sectionSizes");
    hdr.payload_hash = planStoreChecksum(out.data() + sizeof(hdr),
                                         out.size() - sizeof(hdr));
    std::memcpy(out.data(), &hdr, sizeof(hdr));
    return out;
}

std::shared_ptr<const CachedPlan>
PlanStore::deserialize(const uint8_t *data, size_t len,
                       uint64_t expected_key)
{
    // Every check below is a *rejection* (null return), never a
    // fatal: store bytes come from disk and may be truncated, bit
    // flipped, stale-versioned, or misnamed.
    if (len < sizeof(PlanFileHeader))
        return nullptr;
    PlanFileHeader hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    if (hdr.magic != kPlanStoreMagic ||
        hdr.version != kPlanStoreVersion ||
        hdr.key != expected_key)
        return nullptr;
    if (hdr.m < 1 || hdr.k < 1 || hdr.n < 1 || hdr.m > kMaxDim ||
        hdr.k > kMaxDim || hdr.n > kMaxDim || hdr.bz < 1 ||
        hdr.bz > 8)
        return nullptr;
    const bool mirror = (hdr.flags & kFlagDenseMirror) != 0;
    const int nb = (hdr.k + hdr.bz - 1) / hdr.bz;
    const SectionSizes ss =
        sectionSizes(hdr.m, hdr.k, hdr.n, nb, mirror);
    if (static_cast<int64_t>(len) !=
        static_cast<int64_t>(sizeof(hdr)) + ss.payload())
        return nullptr;
    if (planStoreChecksum(data + sizeof(hdr),
                          len - sizeof(hdr)) != hdr.payload_hash)
        return nullptr;

    // The operands are the plan's content; everything else is
    // derived from them. Hydrate by building the plan from the
    // stored operands, and accept the image only when its derived
    // sections are exactly the rebuilt ones: a stale or inconsistent
    // writer can then never hand out a plan that a fresh build of
    // the same operands would not produce.
    const uint8_t *p = data + sizeof(hdr);
    GemmProblem prob(hdr.m, hdr.k, hdr.n);
    std::memcpy(prob.a.data(), p, prob.a.size());
    p += prob.a.size();
    std::memcpy(prob.w.data(), p, prob.w.size());
    p += prob.w.size();
    auto entry = std::make_shared<const CachedPlan>(std::move(prob),
                                                    hdr.bz, mirror);
    const auto stored = static_cast<size_t>(data + len - p);
    std::vector<uint8_t> derived;
    derived.reserve(stored);
    putDerived(derived, entry->plan);
    if (derived.size() != stored ||
        std::memcmp(derived.data(), p, stored) != 0)
        return nullptr;
    return entry;
}

PlanStore::LoadResult
PlanStore::load(uint64_t key) const
{
    LoadResult r;
    n_loads.fetch_add(1, std::memory_order_relaxed);
    if (fault && fault->shouldFail(FaultSite::StoreRead, key)) {
        // Modeled open/map failure: indistinguishable from an
        // absent file, so it degrades to a plain miss.
        n_read_faults.fetch_add(1, std::memory_order_relaxed);
        return r;
    }
    const std::string path = pathFor(key);
    const MappedFile mf = MappedFile::openRead(path);
    if (!mf.valid())
        return r; // plain miss
    if (fault && mf.size() > sizeof(PlanFileHeader) &&
        fault->shouldFail(FaultSite::StoreBitFlip, key)) {
        // Modeled bit rot: flip one payload bit in a copy of the
        // image (payload bits are all checksummed, so the flip is
        // guaranteed to trip validation — a header-padding flip
        // could slip through undetected and break reconciliation).
        std::vector<uint8_t> dirty(mf.data(), mf.data() + mf.size());
        const uint64_t payload_bits =
            (uint64_t(mf.size()) - sizeof(PlanFileHeader)) * 8;
        const uint64_t bit =
            FaultInjector::combineId(key, 0xB17F11Bull) %
            payload_bits;
        dirty[sizeof(PlanFileHeader) + bit / 8] ^=
            uint8_t(1u << (bit % 8));
        r.entry = deserialize(dirty.data(), dirty.size(), key);
    } else {
        r.entry = deserialize(mf.data(), mf.size(), key);
    }
    r.rejected = r.entry == nullptr;
    if (r.rejected) {
        n_rejects.fetch_add(1, std::memory_order_relaxed);
        quarantine(path);
    }
    return r;
}

bool
PlanStore::save(uint64_t key, const CachedPlan &entry) const
{
    const std::vector<uint8_t> image = serialize(key, entry);
    const std::string path = pathFor(key);
    if (fault && fault->shouldFail(FaultSite::StoreWrite, key)) {
        // Modeled torn write: leave half the image behind under an
        // unpublished temp name (swept by attach/compact) and fail
        // the save. Nothing becomes visible under the real path.
        const std::string torn = path + ".tmp.injected";
        if (std::FILE *f = std::fopen(torn.c_str(), "wb")) {
            std::fwrite(image.data(), 1, image.size() / 2, f);
            std::fclose(f);
        }
        n_save_failures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (fault && fault->shouldFail(FaultSite::StoreRename, key)) {
        // Modeled publish failure: the temp was written but the
        // rename failed; writeFileAtomic cleans its temp on that
        // path, so nothing is left behind at all.
        n_save_failures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (writeFileAtomic(path, image.data(), image.size())) {
        n_saves.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    n_save_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
}

// ---- spill codec ----------------------------------------------------

std::vector<uint8_t>
spillEncode(const CachedPlan &entry)
{
    const GemmProblem &p = entry.problem;
    const GemmPlan &plan = entry.plan;
    s2ta_assert(plan.encoded(), "cannot spill a shallow plan");
    std::vector<uint8_t> out;
    // Mask byte + up to bz values per block is the worst case;
    // reserve for it so dense workloads don't reallocate.
    const int64_t blocks =
        (static_cast<int64_t>(p.m) + p.n) *
        plan.act().blocksPerVector();
    out.reserve(static_cast<size_t>(32 + blocks * (plan.bz() + 1)));
    out.push_back(kSpillMagic);
    out.push_back(kSpillVersion);
    putVarint(out, static_cast<uint64_t>(p.m));
    putVarint(out, static_cast<uint64_t>(p.k));
    putVarint(out, static_cast<uint64_t>(p.n));
    out.push_back(static_cast<uint8_t>(plan.bz()));
    out.push_back(plan.wgtDenseT() != nullptr ? 1 : 0);
    encodeBlocks(
        plan.act(), [&p](int i, int kk) { return p.actAt(i, kk); },
        out);
    encodeBlocks(
        plan.wgt(), [&p](int j, int kk) { return p.wgtAt(kk, j); },
        out);
    return out;
}

std::shared_ptr<const CachedPlan>
spillDecode(const uint8_t *data, size_t len)
{
    const uint8_t *p = data;
    const uint8_t *end = data + len;
    if (len < 2 || p[0] != kSpillMagic || p[1] != kSpillVersion)
        return nullptr;
    p += 2;
    int64_t dims[3];
    for (int64_t &d : dims) {
        uint64_t v = 0;
        if (!getVarint(p, end, v) || v < 1 ||
            v > static_cast<uint64_t>(kMaxDim))
            return nullptr;
        d = static_cast<int64_t>(v);
    }
    if (end - p < 2)
        return nullptr;
    const int bz = *p++;
    const uint8_t mirror = *p++;
    // Each operand's element count must fit the int indexing of the
    // plan build.
    constexpr int64_t kMaxElems = std::numeric_limits<int32_t>::max();
    if (bz < 1 || bz > 8 || mirror > 1 ||
        dims[0] * dims[1] > kMaxElems || dims[1] * dims[2] > kMaxElems)
        return nullptr;
    const auto m = static_cast<int>(dims[0]);
    const auto k = static_cast<int>(dims[1]);
    const auto n = static_cast<int>(dims[2]);
    const int nb = (k + bz - 1) / bz;

    // Check the whole block stream before allocating the operands: a
    // few bytes of zero runs can claim dims of any size.
    const uint8_t *blocks = p;
    const auto skip = [](int, int, int8_t) {};
    if (!decodeBlocks(p, end, m, nb, bz, k, skip) ||
        !decodeBlocks(p, end, n, nb, bz, k, skip) || p != end)
        return nullptr;
    GemmProblem prob(m, k, n);
    p = blocks;
    decodeBlocks(p, end, m, nb, bz, k,
                 [&prob](int i, int kk, int8_t v) {
                     prob.actAt(i, kk) = v;
                 });
    decodeBlocks(p, end, n, nb, bz, k,
                 [&prob](int j, int kk, int8_t v) {
                     prob.wgtAt(kk, j) = v;
                 });
    return std::make_shared<const CachedPlan>(std::move(prob), bz,
                                              mirror != 0);
}

} // namespace s2ta

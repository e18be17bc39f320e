/**
 * @file
 * Persistent, cross-process plan store plus the compact spill codec
 * — the two serialized forms of a GemmPlan.
 *
 * The DBB compressed form is weight-static and config-independent:
 * the encoding of a workload depends only on operand content and
 * the block size, never on the array geometry, SMT depth, or
 * sparsity bound under evaluation. A plan encoded once is therefore
 * valid for every future process that sees the same operands, and
 * re-encoding on every invocation (108 cold encodes per sweep, one
 * per distinct workload per serving restart) is pure waste. Two
 * serialized forms exploit this, at opposite points of the
 * size/speed trade:
 *
 *  - **Store form** (PlanStore, one file per plan): the full plan —
 *    operands, both DBB block arrays, the dense transposed weight
 *    mirror when materialized, and the OperandProfile — laid out so
 *    every section hydrates with a single memcpy from the mapped
 *    image (base/mapped_file.hh). Nothing is re-derived on load; a
 *    warm start is bounded by memory bandwidth, not encode compute.
 *  - **Spill form** (spillEncode/spillDecode, in-RAM): the minimum
 *    from which a bit-identical plan can be rebuilt — dims plus the
 *    two block arrays, mask byte + stored values per block, zero
 *    runs run-length coded with varints; operands, mirror, and
 *    profile are all dropped and re-derived on rehydration (the
 *    encodings are lossless, so the operands come back exactly).
 *    This is what PlanCache's spill tier holds evicted entries in.
 *
 * Store files are versioned and checksummed; load() rejects — never
 * trusts — anything that fails validation: short or truncated
 * files, wrong magic, version mismatch after a format bump, key
 * mismatch (a file renamed or hash-colliding), implausible dims,
 * size/dims disagreement, or payload checksum mismatch (bit rot,
 * torn concurrent write on a non-POSIX filesystem). A rejected or
 * absent file is an ordinary cache miss: the caller re-encodes and
 * save() silently replaces the bad file via an atomic temp+rename,
 * so corruption degrades to a cold start, never to wrong results
 * and never to a fatal error. Readers of one store directory are
 * fully concurrent (files are immutable once published; rename
 * guarantees a reader maps old-or-new, never a mix) and writers
 * race benignly (both produce identical bytes for one key).
 *
 * Checksums use a 4-lane interleaved FNV-1a (planStoreChecksum):
 * the single-stream fold of PlanCache::hashBytes is latency-bound
 * on its 64-bit multiply chain, which would make validation as
 * expensive as the memcpy it guards; four independent streams run
 * at memcpy-like speed and are combined order-dependently at the
 * end. Like hashBytes, it is deterministic across platforms of the
 * same endianness — a store directory is a same-arch artifact, not
 * an interchange format.
 */

#ifndef S2TA_ARCH_PLAN_STORE_HH
#define S2TA_ARCH_PLAN_STORE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/plan_cache.hh"

namespace s2ta {

class FaultInjector;

/** Bump on any layout change; old files are rejected and rebuilt. */
constexpr uint32_t kPlanStoreVersion = 1;

/** 4-lane interleaved FNV-1a over @p len bytes (see file comment). */
uint64_t planStoreChecksum(const void *data, size_t len);

class PlanStore
{
  public:
    /**
     * Open (creating if needed) the store directory. Fatal when the
     * directory cannot be created — a store the user asked for on
     * the command line that can never persist anything is a
     * misconfiguration, not a cache miss.
     *
     * @p size_cap_bytes (0 = uncapped) is the total published-entry
     * budget compact() enforces; attaching never evicts on its own,
     * so a reader can open an over-budget store without mutating it
     * beyond the torn-temp sweep.
     */
    explicit PlanStore(std::string dir, int64_t size_cap_bytes = 0);

    PlanStore(const PlanStore &) = delete;
    PlanStore &operator=(const PlanStore &) = delete;

    struct LoadResult
    {
        /** Hydrated plan; null on miss or rejection. */
        std::shared_ptr<const CachedPlan> entry;
        /** True when a file existed but failed validation. */
        bool rejected = false;
    };

    /**
     * Hydrate the plan stored under @p key. Absent file = plain
     * miss; present-but-invalid = rejection (both return a null
     * entry and are never fatal). A rejected file is quarantined:
     * renamed aside to "<name>.quar" so it is never re-read (load
     * only ever opens the exact .s2ta path) and the next save
     * publishes a fresh entry in its place; compact() deletes
     * quarantined files. Concurrent callers are safe.
     */
    LoadResult load(uint64_t key) const;

    /**
     * Serialize @p entry under @p key (atomic replace). Returns
     * false on I/O failure — the plan simply stays unpersisted.
     */
    bool save(uint64_t key, const CachedPlan &entry) const;

    /** Exact lifecycle counters for this store handle (totals;
     *  increment order across threads is unspecified). */
    struct Stats
    {
        int64_t loads = 0;        ///< load() calls
        int64_t rejects = 0;      ///< files that failed validation
        int64_t quarantined = 0;  ///< corrupt files renamed aside
        int64_t read_faults = 0;  ///< injected open/map failures
        int64_t saves = 0;        ///< successful publishes
        int64_t save_failures = 0;///< failed saves (I/O or injected)
        int64_t torn_swept = 0;   ///< "*.tmp.*" leftovers removed
        int64_t quarantine_removed = 0; ///< .quar files deleted
        int64_t evicted_files = 0;///< entries evicted by compact()
        int64_t evicted_bytes = 0;
    };

    Stats stats() const;

    /** compact() outcome: what was swept plus what survived. */
    struct CompactResult
    {
        int64_t torn_swept = 0;
        int64_t quarantine_removed = 0;
        int64_t evicted_files = 0;
        int64_t evicted_bytes = 0;
        /** Published entries remaining after the sweep. */
        int64_t files = 0;
        int64_t bytes = 0;
    };

    /**
     * Lifecycle sweep: remove torn temps and quarantined files,
     * evict published entries older than @p max_age_s (0 = no age
     * cap), then evict oldest-first (mtime, filename tie-break)
     * until total published bytes fit the construction-time size
     * cap. Safe to run concurrently with readers: eviction is
     * unlink, and mapped readers keep their mapping.
     */
    CompactResult compact(double max_age_s = 0.0) const;

    int64_t sizeCapBytes() const { return size_cap; }

    /** Attach a fault injector (StoreRead/StoreWrite/StoreRename/
     *  StoreBitFlip sites, identity = plan key); null detaches.
     *  Not thread-safe against concurrent load/save. */
    void setFaultInjector(const FaultInjector *fi) { fault = fi; }

    const std::string &dir() const { return store_dir; }

    /** File a key serializes to: <dir>/plan_<16-hex-key>.s2ta. */
    std::string pathFor(uint64_t key) const;

    /** Store-form image of @p entry (header + payload). */
    static std::vector<uint8_t> serialize(uint64_t key,
                                          const CachedPlan &entry);

    /**
     * Validate and hydrate a store-form image; null on any
     * validation failure (see file comment for the reject set).
     */
    static std::shared_ptr<const CachedPlan>
    deserialize(const uint8_t *data, size_t len,
                uint64_t expected_key);

  private:
    /** Remove "*.tmp.*" leftovers from the directory (counted). */
    int64_t sweepTornTemps() const;

    /** Rename a rejected file aside so it is never re-read. */
    void quarantine(const std::string &path) const;

    const std::string store_dir;
    const int64_t size_cap;
    const FaultInjector *fault = nullptr;

    // load/save are const (the store is logically a cache); the
    // lifecycle counters they maintain are bookkeeping, not state.
    mutable std::atomic<int64_t> n_loads{0};
    mutable std::atomic<int64_t> n_rejects{0};
    mutable std::atomic<int64_t> n_quarantined{0};
    mutable std::atomic<int64_t> n_read_faults{0};
    mutable std::atomic<int64_t> n_saves{0};
    mutable std::atomic<int64_t> n_save_failures{0};
    mutable std::atomic<int64_t> n_torn_swept{0};
    mutable std::atomic<int64_t> n_quarantine_removed{0};
    mutable std::atomic<int64_t> n_evicted_files{0};
    mutable std::atomic<int64_t> n_evicted_bytes{0};
};

/**
 * Spill-form image of @p entry: dims + varint/RLE-coded block
 * arrays only (mask byte + stored values per non-empty block, zero
 * runs length-coded). Typically 3-6x smaller than the entry's
 * resident footprint.
 */
std::vector<uint8_t> spillEncode(const CachedPlan &entry);

/**
 * Rebuild a full entry from a spill-form image: operands are
 * reconstructed from the lossless encodings, the profile re-derived
 * from the masks, and the dense mirror re-materialized when the
 * entry was built with one — bit-identical to the entry that was
 * spilled. Fatal on a malformed image (spill bytes never leave the
 * process; corruption here is a program bug, not an input).
 */
std::shared_ptr<const CachedPlan> spillDecode(const uint8_t *data,
                                              size_t len);

} // namespace s2ta

#endif // S2TA_ARCH_PLAN_STORE_HH

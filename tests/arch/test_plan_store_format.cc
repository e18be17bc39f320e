/** @file Pins the on-disk plan-store format against a checked-in
 *  golden fixture and sweeps every header byte, so any layout
 *  change that forgets to bump kPlanStoreVersion fails loudly here.
 *
 *  The golden file (tests/data/plan_store_golden.s2ta) is the
 *  serialized form of a fixed-seed entry; regenerate it — only
 *  after a deliberate format bump — with
 *
 *      S2TA_UPDATE_GOLDEN=1 ./tests/arch_test_plan_store_format
 *
 *  from the build directory (writes into the source tree).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "arch/plan_cache.hh"
#include "arch/plan_store.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

/** The fixed-seed entry the golden fixture serializes. */
CachedPlan
goldenEntry()
{
    Rng rng(0x601D);
    GemmProblem p = makeDbbGemm(16, 32, 8, 2, 2, rng);
    return CachedPlan(std::move(p), 8, /*dense_mirror=*/false);
}

std::string
goldenPath()
{
    return std::string(S2TA_TEST_DATA_DIR) +
           "/plan_store_golden.s2ta";
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** Equality at the image level: two entries serialize identically
 *  under the same key iff they are structurally identical. */
void
expectSameImage(const CachedPlan &a, const CachedPlan &b,
                uint64_t key)
{
    EXPECT_EQ(PlanStore::serialize(key, a),
              PlanStore::serialize(key, b));
}

TEST(PlanStoreFormat, GoldenFixtureIsByteExact)
{
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);

    if (std::getenv("S2TA_UPDATE_GOLDEN") != nullptr) {
        writeFile(goldenPath(), image);
        GTEST_SKIP() << "golden fixture regenerated at "
                     << goldenPath();
    }

    // Byte-exact against the checked-in fixture: a drifted layout
    // (or a nondeterministic serializer) fails here before it can
    // silently invalidate every store directory in the field.
    const auto golden = readFile(goldenPath());
    ASSERT_FALSE(golden.empty()) << goldenPath();
    EXPECT_EQ(image, golden);

    // And the fixture hydrates to the entry it was made from.
    const auto back =
        PlanStore::deserialize(golden.data(), golden.size(), key);
    ASSERT_NE(back, nullptr);
    expectSameImage(entry, *back, key);
}

TEST(PlanStoreFormat, VersionMutationsReject)
{
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);
    // Version lives at header bytes 4..7, little-endian uint32.
    for (const uint32_t v :
         {uint32_t{0}, kPlanStoreVersion + 1, uint32_t{0xffffffff}}) {
        auto bad = image;
        std::memcpy(bad.data() + 4, &v, sizeof(v));
        EXPECT_EQ(PlanStore::deserialize(bad.data(), bad.size(), key),
                  nullptr)
            << "version " << v;
    }
    // The unmutated image still hydrates (the sweep above did not
    // pass vacuously).
    EXPECT_NE(PlanStore::deserialize(image.data(), image.size(), key),
              nullptr);
}

TEST(PlanStoreFormat, HeaderByteSweepPinsTheRejectSet)
{
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);

    // Bytes 0..40 are load-bearing (magic, version, key, payload
    // hash, dims, the mirror flag bit): flipping any of them must
    // reject. Bytes 41..43 (undefined flag bits) and 44..47
    // (reserved) are ignored by the current reader, so flips there
    // must still hydrate — that tolerance is what lets a future
    // version assign them meaning without stranding old files.
    for (size_t off = 0; off < 48; ++off) {
        auto bad = image;
        bad[off] ^= 0xff;
        const auto got =
            PlanStore::deserialize(bad.data(), bad.size(), key);
        if (off <= 40) {
            EXPECT_EQ(got, nullptr) << "header byte " << off;
        } else {
            ASSERT_NE(got, nullptr) << "header byte " << off;
            expectSameImage(entry, *got, key);
        }
    }
}

TEST(PlanStoreFormat, TruncationRejects)
{
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);
    for (const size_t len :
         {size_t{0}, size_t{47}, image.size() - 1}) {
        EXPECT_EQ(PlanStore::deserialize(image.data(), len, key),
                  nullptr)
            << "len " << len;
    }
}

TEST(PlanStoreFormat, CorruptFileIsQuarantinedNotFatal)
{
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);

    const std::string dir =
        testing::TempDir() + "s2ta_store_format_quar";
    std::filesystem::remove_all(dir);
    const PlanStore store(dir);

    // A stale-version file (e.g. left by an older build) is
    // rejected, renamed aside, and never re-read.
    auto stale = image;
    const uint32_t old_version = kPlanStoreVersion + 7;
    std::memcpy(stale.data() + 4, &old_version, sizeof(old_version));
    writeFile(store.pathFor(key), stale);

    const auto r = store.load(key);
    EXPECT_EQ(r.entry, nullptr);
    EXPECT_TRUE(r.rejected);
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
    EXPECT_TRUE(
        std::filesystem::exists(store.pathFor(key) + ".quar"));
    EXPECT_EQ(store.stats().quarantined, 1);

    // The quarantined name is dead to load(): the slot reads as a
    // plain miss now, and a fresh save publishes over it cleanly.
    const auto miss = store.load(key);
    EXPECT_EQ(miss.entry, nullptr);
    EXPECT_FALSE(miss.rejected);
    ASSERT_TRUE(store.save(key, entry));
    const auto hit = store.load(key);
    ASSERT_NE(hit.entry, nullptr);
    EXPECT_FALSE(hit.rejected);
    expectSameImage(entry, *hit.entry, key);
}

TEST(PlanStoreFormat, SpillBytesArePinned)
{
    // The spill codec's byte format (mask byte + stored values per
    // block, zero runs varint-coded) is kSpillVersion 1 and carries
    // no version bump: these digests were recorded when plans still
    // held DBB value arrays, and spillEncode — which now reads the
    // values from the dense operands — must reproduce them exactly.
    struct Case
    {
        const char *what;
        CachedPlan entry;
        size_t len;
        uint64_t digest;
    };
    Rng odd_rng(0x5A11);
    GemmProblem odd = makeUnstructuredGemm(7, 37, 11, 0.5, 0.7, odd_rng);
    const Case cases[] = {
        {"golden", goldenEntry(), 295, 0x6c21fde36468f5d8ull},
        {"golden + mirror",
         CachedPlan(GemmProblem(goldenEntry().problem), 8, true), 295,
         0x4c16fde36468f5d8ull},
        {"bz 3, K tail, mirror", CachedPlan(std::move(odd), 3, true),
         552, 0x59488455a013f1d6ull},
    };
    for (const Case &c : cases) {
        const std::vector<uint8_t> bytes = spillEncode(c.entry);
        EXPECT_EQ(bytes.size(), c.len) << c.what;
        EXPECT_EQ(PlanCache::hashBytes(bytes.data(), bytes.size()),
                  c.digest)
            << c.what;
        // And the pinned bytes decode back to the same entry.
        const auto back = spillDecode(bytes.data(), bytes.size());
        expectSameImage(c.entry, *back, 0);
    }
}

TEST(PlanStoreFormat, GoldenFixtureLoadsThroughAStore)
{
    if (std::getenv("S2TA_UPDATE_GOLDEN") != nullptr)
        GTEST_SKIP() << "regeneration run";
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);

    // Drop the checked-in fixture into a store directory under its
    // key's canonical name: load() must treat it as a first-class
    // entry — the format, not this process's serializer, is the
    // compatibility contract.
    const std::string dir =
        testing::TempDir() + "s2ta_store_format_golden";
    std::filesystem::remove_all(dir);
    const PlanStore store(dir);
    const auto golden = readFile(goldenPath());
    ASSERT_FALSE(golden.empty());
    writeFile(store.pathFor(key), golden);

    const auto r = store.load(key);
    ASSERT_NE(r.entry, nullptr);
    EXPECT_FALSE(r.rejected);
    expectSameImage(entry, *r.entry, key);
}

} // anonymous namespace
} // namespace s2ta

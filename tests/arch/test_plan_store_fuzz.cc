/** @file Seeded mutation fuzzer for PlanStore::deserialize, the
 *  decoder of untrusted store images read from disk.
 *
 *  Every trial mutates one valid image — bit flips, truncations,
 *  header dim and length edits, sections spliced in from another
 *  image — and decodes it twice: once as mutated, so the payload
 *  checksum does the rejecting, and once with the checksum
 *  recomputed over the mutated payload, so the structural checks
 *  behind it are reached. Each decode must either reject the image
 *  or hydrate a plan equal to a fresh GemmPlan::build of the
 *  operands it hydrated, from an image that re-serializes to itself;
 *  it must never crash or read out of bounds (the ASan+UBSan build
 *  runs this binary through ctest).
 *
 *  Reproducing a failure: the failure message carries the trial's
 *  seed and a hex dump of the offending image. Re-run just that
 *  trial with
 *
 *      S2TA_FUZZ_SEED=<seed> ctest -R arch/test_plan_store_fuzz
 *
 *  (any base accepted by strtoull, so the printed hex form pastes
 *  directly). When the env var is set the sweep collapses to that
 *  single seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "arch/plan_store.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

constexpr size_t kHeaderBytes = 48;
constexpr size_t kHashOffset = 16;
/** m, k, n, bz, then the flags word: 32 bits each. */
constexpr size_t kDimsOffset = 24;
constexpr size_t kFlagsOffset = 40;
constexpr uint64_t kKey = 0x5EED5EEDull;

/** One valid source image and the entry it serializes. */
struct Source
{
    std::unique_ptr<CachedPlan> entry;
    std::vector<uint8_t> image;
};

/**
 * The corpus: small entries covering the mirror flag, a K tail, a
 * block size other than 8, and two entries with identical dims and
 * different content, so spliced sections line up.
 */
const std::vector<Source> &
sources()
{
    static const std::vector<Source> corpus = [] {
        struct Shape
        {
            int m, k, n, nnz, bz;
            bool mirror;
            uint64_t seed;
        };
        const Shape shapes[] = {
            {16, 32, 8, 2, 8, false, 0x601D},
            {16, 32, 8, 4, 8, false, 0x601E},
            {9, 40, 20, 3, 8, true, 0x5A1},
            {5, 21, 7, 2, 3, true, 0x5A2},
            {12, 64, 17, 8, 4, false, 0x5A3},
        };
        std::vector<Source> out;
        for (const Shape &s : shapes) {
            Rng rng(s.seed);
            GemmProblem p =
                s.bz == 8
                    ? makeDbbGemm(s.m, s.k, s.n, s.nnz, s.nnz, rng)
                    : makeUnstructuredGemm(s.m, s.k, s.n, 0.5, 0.5,
                                           rng);
            Source src;
            src.entry = std::make_unique<CachedPlan>(
                std::move(p), s.bz, s.mirror);
            src.image = PlanStore::serialize(kKey, *src.entry);
            out.push_back(std::move(src));
        }
        return out;
    }();
    return corpus;
}

/** A dim value worth trying: a neighbour of the old one, a boundary
 *  or a random 32-bit pattern. */
int32_t
dimEdit(Rng &rng, int32_t old)
{
    using Lim = std::numeric_limits<int32_t>;
    switch (rng.uniformInt(0, 3)) {
      case 0:
        return old + static_cast<int32_t>(rng.uniformInt(-2, 2));
      case 1:
        return static_cast<int32_t>(rng.uniformInt(-1, 8));
      case 2:
        return Lim::max() - static_cast<int32_t>(rng.uniformInt(0, 3));
      default:
        return static_cast<int32_t>(
            rng.uniformInt(Lim::min(), Lim::max()));
    }
}

/** Apply one seeded mutation to a copy of a corpus image; @p what
 *  names it for the failure message. */
std::vector<uint8_t>
mutate(Rng &rng, std::string &what)
{
    const auto &corpus = sources();
    const Source &src = corpus[rng.uniformInt(0, corpus.size() - 1)];
    std::vector<uint8_t> img = src.image;
    const size_t len = img.size();
    switch (rng.uniformInt(0, 4)) {
      case 0: { // bit flips anywhere
        const int flips = static_cast<int>(rng.uniformInt(1, 4));
        for (int f = 0; f < flips; ++f) {
            const size_t bit = rng.uniformInt(0, len * 8 - 1);
            img[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        what = "bit flips";
        break;
      }
      case 1: // truncation
        img.resize(rng.uniformInt(0, len - 1));
        what = "truncation";
        break;
      case 2: { // one header dim or the flags word
        const int field = static_cast<int>(rng.uniformInt(0, 4));
        const size_t off =
            kDimsOffset + 4 * static_cast<size_t>(field);
        int32_t v;
        std::memcpy(&v, img.data() + off, sizeof(v));
        v = dimEdit(rng, v);
        std::memcpy(img.data() + off, &v, sizeof(v));
        what = field == 4 ? "flags edit" : "dim edit";
        break;
      }
      case 3: { // length edit: grow or shrink the payload
        if (rng.uniformInt(0, 1) == 0) {
            const size_t grow = rng.uniformInt(1, 64);
            for (size_t i = 0; i < grow; ++i)
                img.push_back(
                    static_cast<uint8_t>(rng.uniformInt(0, 255)));
        } else {
            img.resize(kHeaderBytes +
                       rng.uniformInt(0, len - kHeaderBytes));
        }
        what = "length edit";
        break;
      }
      default: { // splice a byte range in from another image
        const Source &other =
            corpus[rng.uniformInt(0, corpus.size() - 1)];
        const size_t from = rng.uniformInt(0, other.image.size() - 1);
        const size_t n = rng.uniformInt(
            1, std::min<size_t>(other.image.size() - from, 512));
        // Same offset half the time (sections line up between
        // images of equal dims), anywhere in the payload otherwise.
        const size_t to =
            rng.uniformInt(0, 1) == 0
                ? from
                : rng.uniformInt(kHeaderBytes, len - 1);
        if (to + n > img.size())
            img.resize(to + n);
        std::memcpy(img.data() + to, other.image.data() + from, n);
        what = "splice";
        break;
      }
    }
    return img;
}

/** The image with its header checksum recomputed over the payload
 *  (unchanged when too short to hold a header). */
std::vector<uint8_t>
withFreshChecksum(std::vector<uint8_t> img)
{
    if (img.size() >= kHeaderBytes) {
        const uint64_t h = planStoreChecksum(
            img.data() + kHeaderBytes, img.size() - kHeaderBytes);
        std::memcpy(img.data() + kHashOffset, &h, sizeof(h));
    }
    return img;
}

/** Hex dump, 16 bytes a line with offsets. */
std::string
hexDump(const std::vector<uint8_t> &img)
{
    std::string out;
    char buf[32];
    for (size_t i = 0; i < img.size(); ++i) {
        if (i % 16 == 0) {
            std::snprintf(buf, sizeof(buf), "\n0x%04zx:", i);
            out += buf;
        }
        std::snprintf(buf, sizeof(buf), " %02x", img[i]);
        out += buf;
    }
    return out;
}

struct Tally
{
    int64_t rejected = 0;
    int64_t hydrated = 0;
};

/**
 * True when @p a and @p b agree on every byte a current reader
 * interprets: all but the undefined flag bits and the reserved
 * header word.
 */
bool
sameImage(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        uint8_t diff = a[i] ^ b[i];
        if (i == kFlagsOffset)
            diff &= 1u; // bit 0, the mirror flag
        else if (i > kFlagsOffset && i < kHeaderBytes)
            diff = 0;
        if (diff != 0)
            return false;
    }
    return true;
}

/**
 * Decode @p img. A hydrated plan must equal a fresh build of the
 * operands it hydrated, and the image must be the canonical one for
 * that plan: re-serializing gives back its bytes, so no stored
 * section was taken on trust.
 */
void
decodeOne(const std::vector<uint8_t> &img, const std::string &what,
          uint64_t seed, Tally &tally)
{
    const auto got =
        PlanStore::deserialize(img.data(), img.size(), kKey);
    if (got == nullptr) {
        ++tally.rejected;
        return;
    }
    ++tally.hydrated;
    const CachedPlan fresh(GemmProblem(got->problem), got->plan.bz(),
                           got->plan.wgtDenseT() != nullptr);
    const std::vector<uint8_t> back = PlanStore::serialize(kKey, *got);
    const char *broken =
        back != PlanStore::serialize(kKey, fresh)
            ? "hydrated plan differs from a fresh build of its operands"
        : !sameImage(img, back) ? "accepted a non-canonical image"
                                : nullptr;
    if (broken != nullptr) {
        ADD_FAILURE() << what << ": " << broken << "; repro: "
                      << "S2TA_FUZZ_SEED=0x" << std::hex << seed
                      << std::dec
                      << " ctest -R arch/test_plan_store_fuzz"
                      << "\nimage (" << img.size() << " bytes):"
                      << hexDump(img);
    }
}

void
fuzzOneSeed(uint64_t seed, Tally &stored, Tally &fresh)
{
    Rng rng(seed);
    std::string what;
    const std::vector<uint8_t> img = mutate(rng, what);
    decodeOne(img, what + " (stored checksum)", seed, stored);
    decodeOne(withFreshChecksum(img), what + " (fresh checksum)",
              seed, fresh);
}

TEST(PlanStoreFuzz, MutatedImagesRejectOrHydrateExactly)
{
    Tally stored, fresh;
    if (const char *env = std::getenv("S2TA_FUZZ_SEED")) {
        // Single-seed repro mode.
        fuzzOneSeed(std::strtoull(env, nullptr, 0), stored, fresh);
        return;
    }
    const uint64_t base = 0x5702E000ULL;
    constexpr int kTrials = 20000;
    for (int trial = 0; trial < kTrials; ++trial) {
        fuzzOneSeed(base + static_cast<uint64_t>(trial), stored,
                    fresh);
        if (::testing::Test::HasFailure())
            return; // one repro line is enough, and the last one
    }
    // Not vacuous: the stored checksum rejects nearly everything,
    // and with it recomputed both verdicts still occur.
    EXPECT_GT(stored.rejected, kTrials * 9 / 10);
    EXPECT_GT(fresh.rejected, 0);
    EXPECT_GT(fresh.hydrated, 0);
    std::printf("stored checksum: %lld rejected, %lld hydrated; "
                "fresh checksum: %lld rejected, %lld hydrated\n",
                static_cast<long long>(stored.rejected),
                static_cast<long long>(stored.hydrated),
                static_cast<long long>(fresh.rejected),
                static_cast<long long>(fresh.hydrated));
}

TEST(PlanStoreFuzz, CorpusImagesHydrate)
{
    // The unmutated corpus decodes, so the sweep above starts from
    // images the decoder accepts.
    for (const Source &src : sources()) {
        const auto got = PlanStore::deserialize(
            src.image.data(), src.image.size(), kKey);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(PlanStore::serialize(kKey, *got), src.image);
    }
}

} // anonymous namespace
} // namespace s2ta

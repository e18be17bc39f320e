/** @file Seeded mutation fuzzer for spillDecode, the decoder of the
 *  plan cache's in-RAM spill images.
 *
 *  Spill bytes never leave the process, but the decoder is written
 *  to survive any input: it returns nullptr on an image spillEncode
 *  could not have written. Every trial mutates one valid image —
 *  bit flips, truncations, varint and dim edits (neighbours,
 *  boundaries, random values, non-canonical encodings, zero runs
 *  split in two), and block ranges spliced in from another image —
 *  and decodes it. The
 *  decode must either reject the image or return an entry whose
 *  spillEncode reproduces the input bytes and whose plan equals a
 *  fresh build of its operands; it must never crash, assert or read
 *  out of bounds (the ASan+UBSan build runs this binary through
 *  ctest).
 *
 *  Reproducing a failure: the failure message carries the trial's
 *  seed and a hex dump of the offending image. Re-run just that
 *  trial with
 *
 *      S2TA_FUZZ_SEED=<seed> ctest -R arch/test_spill_fuzz
 *
 *  (any base accepted by strtoull, so the printed hex form pastes
 *  directly). When the env var is set the sweep collapses to that
 *  single seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/plan_store.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

/** Magic and version bytes, then the m, k, n varints. */
constexpr size_t kDimsOffset = 2;
constexpr uint64_t kKey = 0x5EED5EEDull;

/** Byte range [begin, end) of one field of an image. */
using Field = std::pair<size_t, size_t>;

/** One valid source image, the entry it encodes, and where its
 *  varints and single-byte fields sit. */
struct Source
{
    std::unique_ptr<CachedPlan> entry;
    std::vector<uint8_t> image;
    /** m, k, n, then every zero-run extension. */
    std::vector<Field> varints;
    /** The bz byte; the mirror byte follows it. */
    size_t bz_at = 0;
    /** First byte of the block streams. */
    size_t blocks_at = 0;
};

/** Skip one varint of a valid image, returning its range. */
Field
skipVarint(const std::vector<uint8_t> &img, size_t &at)
{
    const size_t begin = at;
    while (img[at] & 0x80u)
        ++at;
    return {begin, ++at};
}

/** Record the field layout of @p src's (valid) image. */
void
mapFields(Source &src)
{
    const std::vector<uint8_t> &img = src.image;
    size_t at = kDimsOffset;
    for (int d = 0; d < 3; ++d)
        src.varints.push_back(skipVarint(img, at));
    src.bz_at = at;
    at += 2;
    src.blocks_at = at;
    const GemmProblem &p = src.entry->problem;
    const int bz = src.entry->plan.bz();
    const int64_t nb = (p.k + bz - 1) / bz;
    for (const int64_t vectors : {p.m, p.n}) {
        for (int64_t i = 0; i < vectors * nb;) {
            const uint8_t mask = img[at++];
            if (mask != 0) {
                at += static_cast<size_t>(__builtin_popcount(mask));
                ++i;
                continue;
            }
            const Field f = skipVarint(img, at);
            src.varints.push_back(f);
            uint64_t extra = 0;
            for (size_t b = f.second; b-- > f.first;)
                extra = (extra << 7) | (img[b] & 0x7fu);
            i += 1 + static_cast<int64_t>(extra);
        }
    }
    ASSERT_EQ(at, img.size()) << "corpus image layout";
}

/**
 * The corpus: small entries covering both mirror settings, K tails,
 * block sizes other than 8, dense operands (no zero runs), very
 * sparse ones (runs long enough for multi-byte varints) and an
 * all-zero activation matrix (one run over the whole operand), plus
 * two entries with identical dims and different content, so spliced
 * blocks line up.
 */
const std::vector<Source> &
sources()
{
    static const std::vector<Source> corpus = [] {
        struct Shape
        {
            int m, k, n, nnz, bz;
            /** Unstructured sparsity when nnz == 0. */
            double sparsity;
            bool mirror;
            uint64_t seed;
        };
        const Shape shapes[] = {
            {16, 32, 8, 2, 8, 0.0, false, 0x5B11},
            {16, 32, 8, 4, 8, 0.0, true, 0x5B12},
            {9, 43, 20, 0, 8, 0.5, true, 0x5B13},
            {5, 21, 7, 0, 4, 0.3, false, 0x5B14},
            {12, 64, 17, 0, 3, 0.0, false, 0x5B15},
            {40, 256, 24, 0, 8, 0.995, true, 0x5B16},
        };
        std::vector<Source> out;
        for (const Shape &s : shapes) {
            Rng rng(s.seed);
            GemmProblem p =
                s.nnz > 0
                    ? makeDbbGemm(s.m, s.k, s.n, s.nnz, s.nnz, rng)
                    : makeUnstructuredGemm(s.m, s.k, s.n, s.sparsity,
                                           s.sparsity, rng);
            Source src;
            src.entry = std::make_unique<CachedPlan>(
                std::move(p), s.bz, s.mirror);
            out.push_back(std::move(src));
        }
        // An all-zero activation matrix: one 320-block run, a
        // two-byte varint.
        GemmProblem zero(40, 64, 5);
        std::fill(zero.w.begin(), zero.w.end(), int8_t{3});
        Source src;
        src.entry =
            std::make_unique<CachedPlan>(std::move(zero), 8, false);
        out.push_back(std::move(src));
        for (Source &s : out) {
            s.image = spillEncode(*s.entry);
            mapFields(s);
        }
        return out;
    }();
    return corpus;
}

void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/** A new encoding for a varint that held @p old: a neighbour, a
 *  boundary, a random value, or a non-canonical form (a redundant
 *  high zero byte, ten continuation bytes, or, for the extension of
 *  a zero run of @p run >= 2 blocks, the run split in two). */
std::vector<uint8_t>
varintEdit(Rng &rng, uint64_t old, bool run)
{
    static const uint64_t kBoundaries[] = {
        0, 1, 127, 128, 16383, 16384, (1ull << 27), (1ull << 27) + 1,
        (1ull << 31), ~0ull};
    std::vector<uint8_t> out;
    switch (rng.uniformInt(0, run && old > 0 ? 5 : 4)) {
      case 0:
        putVarint(out, old + static_cast<uint64_t>(
                                 rng.uniformInt(-2, 2)));
        break;
      case 1:
        putVarint(out, kBoundaries[rng.uniformInt(
                           0, std::size(kBoundaries) - 1)]);
        break;
      case 2:
        putVarint(out, static_cast<uint64_t>(rng.uniformInt(
                           0, std::numeric_limits<int64_t>::max())) >>
                           rng.uniformInt(0, 62));
        break;
      case 3:
        putVarint(out, old);
        out.back() |= 0x80u;
        out.push_back(0);
        break;
      case 4:
        out.assign(10, 0xFF);
        break;
      default: { // runs of `first` and old + 1 - first blocks
        const auto first =
            static_cast<uint64_t>(rng.uniformInt(1, old));
        putVarint(out, first - 1);
        out.push_back(0);
        putVarint(out, old - first);
        break;
      }
    }
    return out;
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
    switch (rng.uniformInt(0, 3)) {
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
      case 2: { // one varint, or the bz or mirror byte
        const size_t pick =
            rng.uniformInt(0, src.varints.size() + 1);
        if (pick >= src.varints.size()) {
            const size_t at = src.bz_at + (pick - src.varints.size());
            img[at] = rng.uniformInt(0, 1) == 0
                          ? static_cast<uint8_t>(img[at] +
                                                 rng.uniformInt(-1, 1))
                          : static_cast<uint8_t>(rng.uniformInt(0, 255));
            what = at == src.bz_at ? "bz edit" : "mirror edit";
            break;
        }
        const Field f = src.varints[pick];
        uint64_t old = 0;
        for (size_t b = f.second; b-- > f.first;)
            old = (old << 7) | (img[b] & 0x7fu);
        const std::vector<uint8_t> bytes =
            varintEdit(rng, old, pick >= 3);
        img.erase(img.begin() + static_cast<std::ptrdiff_t>(f.first),
                  img.begin() + static_cast<std::ptrdiff_t>(f.second));
        img.insert(img.begin() + static_cast<std::ptrdiff_t>(f.first),
                   bytes.begin(), bytes.end());
        what = pick < 3 ? "dim edit" : "run varint edit";
        break;
      }
      default: { // splice a block range in from another image
        const Source &other =
            corpus[rng.uniformInt(0, corpus.size() - 1)];
        const size_t from = rng.uniformInt(other.blocks_at,
                                           other.image.size() - 1);
        const size_t n = rng.uniformInt(
            1, std::min<size_t>(other.image.size() - from, 64));
        const auto first =
            other.image.begin() + static_cast<std::ptrdiff_t>(from);
        // Same offset half the time (blocks line up between images
        // of equal dims), anywhere in the block streams otherwise;
        // overwrite or insert.
        const size_t to = rng.uniformInt(0, 1) == 0
                              ? std::min(from, len)
                              : rng.uniformInt(src.blocks_at, len);
        if (rng.uniformInt(0, 1) == 0) {
            if (to + n > img.size())
                img.resize(to + n);
            std::copy(first, first + static_cast<std::ptrdiff_t>(n),
                      img.begin() + static_cast<std::ptrdiff_t>(to));
            what = "splice (overwrite)";
        } else {
            img.insert(img.begin() + static_cast<std::ptrdiff_t>(to),
                       first, first + static_cast<std::ptrdiff_t>(n));
            what = "splice (insert)";
        }
        break;
      }
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
    int64_t decoded = 0;
};

/**
 * Decode @p img. An accepted image must be the canonical one for the
 * entry it decodes to (spillEncode gives back its bytes), and that
 * entry's plan must equal a fresh build of its operands.
 */
void
decodeOne(const std::vector<uint8_t> &img, const std::string &what,
          uint64_t seed, Tally &tally)
{
    const auto got = spillDecode(img.data(), img.size());
    if (got == nullptr) {
        ++tally.rejected;
        return;
    }
    ++tally.decoded;
    const CachedPlan fresh(GemmProblem(got->problem), got->plan.bz(),
                           got->plan.wgtDenseT() != nullptr);
    const char *broken =
        spillEncode(*got) != img ? "accepted a non-canonical image"
        : PlanStore::serialize(kKey, *got) !=
                PlanStore::serialize(kKey, fresh)
            ? "decoded plan differs from a fresh build of its operands"
            : nullptr;
    if (broken != nullptr) {
        ADD_FAILURE() << what << ": " << broken << "; repro: "
                      << "S2TA_FUZZ_SEED=0x" << std::hex << seed
                      << std::dec << " ctest -R arch/test_spill_fuzz"
                      << "\nimage (" << img.size() << " bytes):"
                      << hexDump(img);
    }
}

void
fuzzOneSeed(uint64_t seed, Tally &tally)
{
    Rng rng(seed);
    std::string what;
    const std::vector<uint8_t> img = mutate(rng, what);
    decodeOne(img, what, seed, tally);
}

TEST(SpillFuzz, MutatedImagesRejectOrDecodeExactly)
{
    Tally tally;
    if (const char *env = std::getenv("S2TA_FUZZ_SEED")) {
        // Single-seed repro mode.
        fuzzOneSeed(std::strtoull(env, nullptr, 0), tally);
        return;
    }
    const uint64_t base = 0x5B111000ULL;
    constexpr int kTrials = 20000;
    for (int trial = 0; trial < kTrials; ++trial) {
        fuzzOneSeed(base + static_cast<uint64_t>(trial), tally);
        if (::testing::Test::HasFailure())
            return; // one repro line is enough, and the last one
    }
    // Not vacuous: both verdicts occur.
    EXPECT_GT(tally.rejected, 0);
    EXPECT_GT(tally.decoded, 0);
    std::printf("%lld rejected, %lld decoded\n",
                static_cast<long long>(tally.rejected),
                static_cast<long long>(tally.decoded));
}

TEST(SpillFuzz, CorpusImagesDecode)
{
    // The unmutated corpus decodes to its own entries, so the sweep
    // above starts from images the decoder accepts.
    for (const Source &src : sources()) {
        const auto got =
            spillDecode(src.image.data(), src.image.size());
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(spillEncode(*got), src.image);
        EXPECT_EQ(PlanStore::serialize(kKey, *got),
                  PlanStore::serialize(kKey, *src.entry));
    }
}

TEST(SpillFuzz, CorpusCoversEveryField)
{
    // The varint mutations need runs to edit, and some of them must
    // take more than one byte.
    size_t runs = 0, multi_byte = 0;
    for (const Source &src : sources()) {
        runs += src.varints.size() - 3;
        for (size_t i = 3; i < src.varints.size(); ++i)
            multi_byte += src.varints[i].second - src.varints[i].first > 1;
    }
    EXPECT_GT(runs, 0u);
    EXPECT_GT(multi_byte, 0u);
}

} // anonymous namespace
} // namespace s2ta

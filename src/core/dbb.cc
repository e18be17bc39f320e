#include "core/dbb.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace s2ta {

std::string
DbbSpec::toString() const
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d/%d", nnz, bz);
    return buf;
}

DbbBlock
dbbEncode(std::span<const int8_t> dense, const DbbSpec &spec)
{
    s2ta_assert(spec.valid(), "invalid DBB spec %d/%d",
                spec.nnz, spec.bz);
    s2ta_assert(dense.size() == static_cast<size_t>(spec.bz),
                "block length %zu != bz %d", dense.size(), spec.bz);

    DbbBlock blk;
    int slot = 0;
    for (int i = 0; i < spec.bz; ++i) {
        if (dense[static_cast<size_t>(i)] == 0)
            continue;
        s2ta_assert(slot < spec.nnz,
                    "block violates %s density bound; prune first",
                    spec.toString().c_str());
        blk.values[static_cast<size_t>(slot)] =
            dense[static_cast<size_t>(i)];
        blk.mask = maskSet(blk.mask, i);
        ++slot;
    }
    return blk;
}

void
dbbDecode(const DbbBlock &block, const DbbSpec &spec,
          std::span<int8_t> dense_out)
{
    s2ta_assert(dense_out.size() == static_cast<size_t>(spec.bz),
                "output length %zu != bz %d", dense_out.size(),
                spec.bz);
    for (int i = 0; i < spec.bz; ++i)
        dense_out[static_cast<size_t>(i)] = block.expandedAt(i);
}

bool
dbbSatisfies(std::span<const int8_t> dense, const DbbSpec &spec)
{
    if (dense.size() != static_cast<size_t>(spec.bz))
        return false;
    int nz = 0;
    for (int8_t v : dense)
        nz += (v != 0);
    return nz <= spec.nnz;
}

DbbMatrix
DbbMatrix::fromWeights(const GemmProblem &p, const DbbSpec &spec)
{
    s2ta_assert(spec.valid(), "invalid DBB spec %d/%d",
                spec.nnz, spec.bz);
    const int bz = spec.bz;
    DbbMatrix m(spec, p.n, (p.k + bz - 1) / bz);
    // The weight operand is K x N row-major but blocks run down each
    // column; encode all N column blocks of one block-row at a time
    // so memory access stays sequential.
    for (int b = 0; b < m.n_blocks; ++b) {
        const int klim = std::min(bz, p.k - b * bz);
        for (int e = 0; e < klim; ++e) {
            const int8_t *row =
                &p.w[static_cast<size_t>(b * bz + e) * p.n];
            for (int j = 0; j < p.n; ++j) {
                if (row[j] == 0)
                    continue;
                DbbBlock &blk =
                    m.blks[static_cast<size_t>(j) * m.n_blocks + b];
                const int slot = maskPopcount(blk.mask);
                s2ta_assert(slot < spec.nnz,
                            "weight block (col %d, block %d) "
                            "violates %s density bound; prune first",
                            j, b, spec.toString().c_str());
                blk.values[static_cast<size_t>(slot)] = row[j];
                blk.mask = maskSet(blk.mask, e);
            }
        }
    }
    return m;
}

DbbMatrix
DbbMatrix::fromActivations(const GemmProblem &p, const DbbSpec &spec)
{
    s2ta_assert(spec.valid(), "invalid DBB spec %d/%d",
                spec.nnz, spec.bz);
    const int bz = spec.bz;
    DbbMatrix m(spec, p.m, (p.k + bz - 1) / bz);
    for (int i = 0; i < p.m; ++i) {
        const int8_t *row = &p.a[static_cast<size_t>(i) * p.k];
        DbbBlock *blk_row =
            &m.blks[static_cast<size_t>(i) * m.n_blocks];
        for (int b = 0; b < m.n_blocks; ++b) {
            DbbBlock &blk = blk_row[b];
            const int klim = std::min(bz, p.k - b * bz);
            int slot = 0;
            for (int e = 0; e < klim; ++e) {
                const int8_t v = row[b * bz + e];
                if (v == 0)
                    continue;
                s2ta_assert(slot < spec.nnz,
                            "activation block (row %d, block %d) "
                            "violates %s density bound; prune first",
                            i, b, spec.toString().c_str());
                blk.values[static_cast<size_t>(slot)] = v;
                blk.mask = maskSet(blk.mask, e);
                ++slot;
            }
        }
    }
    return m;
}

int64_t
DbbMatrix::compressedBytes() const
{
    // nnz value bytes + 1 mask byte per block.
    return static_cast<int64_t>(n_vectors) * n_blocks *
           (dbb_spec.nnz + 1);
}

double
DbbMatrix::occupancy() const
{
    if (blks.empty())
        return 0.0;
    int64_t stored = 0;
    for (const DbbBlock &b : blks)
        stored += b.storedCount();
    return static_cast<double>(stored) /
           (static_cast<double>(blks.size()) * dbb_spec.nnz);
}

std::vector<int8_t>
DbbMatrix::toDense() const
{
    const int k = n_blocks * dbb_spec.bz;
    std::vector<int8_t> dense(
        static_cast<size_t>(n_vectors) * k, 0);
    for (int v = 0; v < n_vectors; ++v) {
        for (int b = 0; b < n_blocks; ++b) {
            const DbbBlock &blk =
                blks[static_cast<size_t>(v) * n_blocks + b];
            for (int e = 0; e < dbb_spec.bz; ++e) {
                dense[static_cast<size_t>(v) * k + b * dbb_spec.bz +
                      e] = blk.expandedAt(e);
            }
        }
    }
    return dense;
}

namespace {

/**
 * Non-zero bitmap of the @p len bytes at @p src: bit x of the byte
 * stream @p bits is set iff src[x] != 0. Writes ceil(len / 8)
 * bytes; bits past @p len stay clear. SSE2 turns 16 bytes into 16
 * bits with one pcmpeqb and one pmovmskb.
 */
void
nonZeroBits(const int8_t *src, int len, uint8_t *bits)
{
    int x = 0;
#ifdef __SSE2__
    const __m128i zero = _mm_setzero_si128();
    for (; x + 16 <= len; x += 16) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + x));
        const auto nz = static_cast<uint16_t>(
            ~_mm_movemask_epi8(_mm_cmpeq_epi8(v, zero)));
        std::memcpy(bits + x / 8, &nz, sizeof(nz)); // little-endian
    }
#endif
    for (; x < len; x += 8) {
        const int lim = std::min(8, len - x);
        Mask8 byte = 0;
        for (int e = 0; e < lim; ++e) {
            if (src[x + e] != 0)
                byte = maskSet(byte, e);
        }
        bits[x / 8] = byte;
    }
}

} // anonymous namespace

MaskMatrix
MaskMatrix::fromActivations(const GemmProblem &p, int bz)
{
    s2ta_assert(bz >= 1 && bz <= 8, "block size %d", bz);
    MaskMatrix mm(bz, p.m, p.k);
    const int nb = mm.n_blocks;
    // With bz == 8 a row's bitmap is its mask array; other block
    // sizes cut bz-bit fields out of the bitmap (a field never spans
    // more than two bytes; the extra zero byte covers the last one).
    std::vector<uint8_t> bits(bz == 8 ? 0 : (p.k + 7) / 8 + 1);
    for (int i = 0; i < p.m; ++i) {
        const int8_t *row = &p.a[static_cast<size_t>(i) * p.k];
        Mask8 *out = &mm.masks[static_cast<size_t>(i) * nb];
        if (bz == 8) {
            nonZeroBits(row, p.k, out);
            continue;
        }
        nonZeroBits(row, p.k, bits.data());
        for (int b = 0; b < nb; ++b) {
            const int at = b * bz;
            const unsigned two =
                bits[static_cast<size_t>(at / 8)] |
                (bits[static_cast<size_t>(at / 8 + 1)] << 8);
            out[b] = static_cast<Mask8>((two >> (at % 8)) &
                                        ((1u << bz) - 1));
        }
    }
    return mm;
}

MaskMatrix
MaskMatrix::fromWeights(const GemmProblem &p, int bz)
{
    s2ta_assert(bz >= 1 && bz <= 8, "block size %d", bz);
    MaskMatrix mm(bz, p.n, p.k);
    const int nb = mm.n_blocks;
    // Blocks run down the columns of the K x N operand: OR together
    // the non-zero flags of a block-row's (up to) bz K-rows, each
    // flag weighted by its row's bit, 16 columns at a time.
    for (int b = 0; b < nb; ++b) {
        const int klim = std::min(bz, p.k - b * bz);
        const int8_t *rows = &p.w[static_cast<size_t>(b) * bz * p.n];
        int j = 0;
#ifdef __SSE2__
        const __m128i zero = _mm_setzero_si128();
        for (; j + 16 <= p.n; j += 16) {
            __m128i acc = zero;
            for (int e = 0; e < klim; ++e) {
                const __m128i v = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(
                        rows + static_cast<size_t>(e) * p.n + j));
                acc = _mm_or_si128(
                    acc, _mm_andnot_si128(
                             _mm_cmpeq_epi8(v, zero),
                             _mm_set1_epi8(static_cast<char>(1u << e))));
            }
            alignas(16) Mask8 col[16];
            _mm_store_si128(reinterpret_cast<__m128i *>(col), acc);
            for (int t = 0; t < 16; ++t)
                mm.masks[static_cast<size_t>(j + t) * nb + b] = col[t];
        }
#endif
        for (; j < p.n; ++j) {
            Mask8 m = 0;
            for (int e = 0; e < klim; ++e) {
                if (rows[static_cast<size_t>(e) * p.n + j] != 0)
                    m = maskSet(m, e);
            }
            mm.masks[static_cast<size_t>(j) * nb + b] = m;
        }
    }
    return mm;
}

} // namespace s2ta

#include "tensor/gemm.hh"

namespace s2ta {

std::vector<int32_t>
gemmReference(const GemmProblem &p)
{
    std::vector<int32_t> c(static_cast<size_t>(p.m) * p.n, 0);
    // i-k-j loop order keeps the inner traversal contiguous in both
    // the weight matrix and the output row.
    for (int i = 0; i < p.m; ++i) {
        const int8_t *arow = &p.a[static_cast<size_t>(i) * p.k];
        int32_t *crow = &c[static_cast<size_t>(i) * p.n];
        for (int kk = 0; kk < p.k; ++kk) {
            const int32_t av = arow[kk];
            if (av == 0)
                continue;
            const int8_t *wrow = &p.w[static_cast<size_t>(kk) * p.n];
            // Unsigned adds: INT32 wraparound, without the undefined
            // behaviour of a signed overflow.
            for (int j = 0; j < p.n; ++j)
                crow[j] = static_cast<int32_t>(
                    static_cast<uint32_t>(crow[j]) +
                    static_cast<uint32_t>(av * wrow[j]));
        }
    }
    return c;
}

} // namespace s2ta

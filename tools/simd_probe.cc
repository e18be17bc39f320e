/**
 * @file
 * Prints what the SIMD kernel ladder resolved to on this machine:
 * each dense-GEMM tier's runtime cpuid probe (every tier is compiled
 * on x86-64, the baseline alone elsewhere), the AVX-512 VPOPCNTDQ
 * profile sub-feature, and the tier the dispatcher actually
 * selected. CI runs this before the kernel tests so a log of a
 * failing runner shows exactly which paths were live; it is also
 * the quickest way to see why --simd avx512 is rejected on a given
 * host.
 *
 * Output is one `key value` pair per line (stable keys, lower-case
 * values) so scripts can grep it. Exits 0 always — a baseline-only
 * machine is a valid configuration, not an error.
 */

#include <cstdio>

#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"

using namespace s2ta;

int
main()
{
    for (const DbbKernelKind kind :
         {DbbKernelKind::Scalar, DbbKernelKind::Avx2,
          DbbKernelKind::Avx512}) {
        std::printf("tier_%s %s\n", dbbKernelKindName(kind),
                    dbbKernelSupported(kind) ? "true" : "false");
    }
#if defined(__x86_64__)
    const bool vpopcnt = dbbVpopcntKernelSupportedImpl();
#else
    const bool vpopcnt = false;
#endif
    std::printf("subfeature_avx512_vpopcntdq %s\n",
                vpopcnt ? "true" : "false");
    std::printf("profile_simd_enabled %s\n",
                dbbProfileSimdEnabled() ? "true" : "false");
    std::printf("active_kernel %s\n",
                dbbKernelKindName(dbbActiveKernel()));
    return 0;
}

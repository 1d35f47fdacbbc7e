/**
 * @file
 * The host-FPU route: a proven-equal gate in front of the softfloat
 * core.
 *
 * An op that no fault strikes has nothing to inject into, so its
 * stage-by-stage softfloat evaluation only reproduces the IEEE
 * result. detail::enterOp() decides once per op (OpCtx::host) whether
 * the host may compute it instead, and hostAdmits() in fp/internal.hh
 * says for which formats the host result is bit-identical; everything
 * else falls through to the unchanged softfloat body. The 16-bit
 * formats widen exactly at the bit level and narrow by one integer
 * round-to-nearest-even step (narrow). Their add, sub, mul, div and
 * sqrt run in float; their fma runs in double, where the product is
 * exact, and keeps the host result only when TwoSum proves the sum
 * exact too: every other fma returns kHostDeclined and runs on
 * softfloat.
 * NaN results are canonicalised to quietNaN(f), as the softfloat core
 * returns them.
 *
 * The ops themselves are the per-format templates of fp/host.hh; this
 * file holds their runtime-format entry points for the per-op gate
 * and the conversions. The block gate's HostFp<P> (fp/host.hh) runs
 * the same templates inline in the kernels that adopt it.
 *
 * fp-contract: the templates are instantiated in kernel translation
 * units outside mparch_fp, where GCC's default -ffp-contract=fast
 * could fuse a host a*b+c into one rounding in any build with FMA
 * instructions. -ffp-contract=off is therefore a PUBLIC option of
 * mparch_fp, applied to every target that links it; keeping each
 * HostFp op out of line here instead would cost a call per op inside
 * the host blocks. This file also builds with -fno-math-errno, so
 * std::sqrt is the bare instruction. Native fma/sqrt belong in this
 * file and fp/host.hh only (the host-math lint rule).
 */

#include "fp/internal.hh"

#include <bit>
#include <cmath>

namespace mparch::fp::detail {

namespace {

/**
 * Call @p fn.template operator()<F>() for the memory format F equal
 * to @p f (one the host admits).
 */
template <class Fn>
std::uint64_t
byFormat(Format f, Fn fn)
{
    if (f == kSingle)
        return fn.template operator()<kSingle>();
    if (f == kDouble)
        return fn.template operator()<kDouble>();
    if (f == kHalf)
        return fn.template operator()<kHalf>();
    MPARCH_ASSERT(f == kBfloat16, "format not admitted by hostAdmits");
    return fn.template operator()<kBfloat16>();
}

/** Any memory-format pattern as a double (exact). */
double
widenToDouble(Format src, std::uint64_t a)
{
    if (src == kDouble)
        return toNative<kDouble>(a);
    if (src == kSingle)
        return toNative<kSingle>(a);
    return src == kHalf ? widenHalf(a) : widenBfloat16(a);
}

} // namespace

std::uint64_t
hostAdd(Format f, std::uint64_t a, std::uint64_t b)
{
    return byFormat(f, [&]<Format F>() {
        return toBits<F>(hostAdd<F>(toNative<F>(a), toNative<F>(b)));
    });
}

std::uint64_t
hostMul(Format f, std::uint64_t a, std::uint64_t b)
{
    return byFormat(f, [&]<Format F>() {
        return toBits<F>(hostMul<F>(toNative<F>(a), toNative<F>(b)));
    });
}

std::uint64_t
hostDiv(Format f, std::uint64_t a, std::uint64_t b)
{
    return byFormat(f, [&]<Format F>() {
        return toBits<F>(hostDiv<F>(toNative<F>(a), toNative<F>(b)));
    });
}

std::uint64_t
hostSqrt(Format f, std::uint64_t a)
{
    return byFormat(f, [&]<Format F>() {
        return toBits<F>(hostSqrt<F>(toNative<F>(a)));
    });
}

std::uint64_t
hostFma(Format f, std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return byFormat(f, [&]<Format F>() {
        return toBits<F>(hostFma<F>(toNative<F>(a), toNative<F>(b),
                                    toNative<F>(c)));
    });
}

std::uint64_t
hostConvert(Format dst, Format src, std::uint64_t a)
{
    // Every source widens to double exactly; one rounding narrows.
    const double v = widenToDouble(src, a);
    if (dst == kDouble)
        return toBits<kDouble>(canonical(v));
    if (dst == kSingle)
        return toBits<kSingle>(canonical(static_cast<float>(v)));
    const auto bits = std::bit_cast<std::uint64_t>(v);
    return dst == kHalf ? narrow<kHalf, kDouble>(bits)
                        : narrow<kBfloat16, kDouble>(bits);
}

} // namespace mparch::fp::detail

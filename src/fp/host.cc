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
 * formats widen exactly (widenHalf, widenBfloat16) and narrow by one
 * integer round-to-nearest-even step (narrow). Their add, sub, mul, div and
 * sqrt run in float; their fma runs in double, where the product is
 * exact, and keeps the host result only when TwoSum proves the sum
 * exact too: every other fma returns kHostDeclined and runs on
 * softfloat.
 * NaN results are canonicalised to quietNaN(f), as the softfloat core
 * returns them.
 *
 * The ops themselves are the per-format templates of fp/host.hh; this
 * file holds their runtime-format entry points for the per-op gate
 * and the conversions. Single and double fma also run here as the
 * two compilations of one loop (fmaRunFmaUnit, fmaRunPlain), one of
 * them picked by a CPU feature flag, and hostStruck takes a struck
 * single/double op whose fault hits an operand or a finite non-zero
 * result: the host computes around the one touch the fault needs.
 * The block gate's HostFp<P> (fp/host.hh) runs the same templates
 * inline in the kernels that adopt it.
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
 * The loop of the fmaRun* compilations, inlined into each so that its
 * std::fma is expanded for that function's target: the instruction
 * under target("fma"), a libm call on the baseline.
 */
template <Precision P, class T>
[[gnu::always_inline]] inline T
fmaRunBody(const Fp<P> *a, std::size_t sa, const Fp<P> *b, std::size_t sb,
           std::size_t n, T acc)
{
    constexpr Format F = formatOf(P);
    for (std::size_t i = 0; i < n; ++i)
        acc = canonical(std::fma(toNative<F>(a[i * sa].bits()),
                                 toNative<F>(b[i * sb].bits()), acc));
    return acc;
}

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

/** One single or double fma through fmaRun (the chain's n = 1). */
template <Precision P>
std::uint64_t
fmaOne(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    constexpr Format F = formatOf(P);
    const Fp<P> x = Fp<P>::fromBits(a);
    const Fp<P> y = Fp<P>::fromBits(b);
    return toBits<F>(fmaRun(&x, 1, &y, 1, 1, toNative<F>(c)));
}

/** The host op @p op of single or double @p f (sub: b negated). */
std::uint64_t
hostArith(OpKind op, Format f, std::uint64_t a, std::uint64_t b,
          std::uint64_t c)
{
    switch (op) {
      case OpKind::Mul: return hostMul(f, a, b);
      case OpKind::Div: return hostDiv(f, a, b);
      case OpKind::Fma: return hostFma(f, a, b, c);
      default:          return hostAdd(f, a, b);
    }
}

} // namespace

#if MPARCH_FP_FMA_UNIT
const bool hostHasFmaUnit = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma") != 0;
}();

[[gnu::target("fma")]] float
fmaRunFmaUnit(const Fp<Precision::Single> *a, std::size_t sa,
              const Fp<Precision::Single> *b, std::size_t sb,
              std::size_t n, float acc)
{
    return fmaRunBody(a, sa, b, sb, n, acc);
}

[[gnu::target("fma")]] double
fmaRunFmaUnit(const Fp<Precision::Double> *a, std::size_t sa,
              const Fp<Precision::Double> *b, std::size_t sb,
              std::size_t n, double acc)
{
    return fmaRunBody(a, sa, b, sb, n, acc);
}
#endif

float
fmaRunPlain(const Fp<Precision::Single> *a, std::size_t sa,
            const Fp<Precision::Single> *b, std::size_t sb, std::size_t n,
            float acc)
{
    return fmaRunBody(a, sa, b, sb, n, acc);
}

double
fmaRunPlain(const Fp<Precision::Double> *a, std::size_t sa,
            const Fp<Precision::Double> *b, std::size_t sb, std::size_t n,
            double acc)
{
    return fmaRunBody(a, sa, b, sb, n, acc);
}

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
    if (f == kSingle)
        return fmaOne<Precision::Single>(a, b, c);
    if (f == kDouble)
        return fmaOne<Precision::Double>(a, b, c);
    return byFormat(f, [&]<Format F>() {
        return toBits<F>(hostFma<F>(toNative<F>(a), toNative<F>(b),
                                    toNative<F>(c)));
    });
}

std::optional<std::uint64_t>
hostStruck(Format f, const OpCtx &ctx, OpKind op, std::uint64_t a,
           std::uint64_t b, std::uint64_t c)
{
    const StrikeTrigger *strike = ctx.hooked ? ctx.ctx->strike : nullptr;
    if (strike == nullptr || !hostFpuReady() ||
        (f != kSingle && f != kDouble))
        return std::nullopt;
    const std::uint64_t sign = 1ULL << f.signPos();
    switch (strike->stage) {
      case Stage::OperandA:
      case Stage::OperandB:
      case Stage::OperandC:
        // The softfloat bodies read every operand before anything
        // else; the touches that miss the struck stage are identity.
        a = touch(ctx, op, Stage::OperandA, f.totalBits, a) &
            f.valueMask();
        b = touch(ctx, op, Stage::OperandB, f.totalBits, b) &
            f.valueMask();
        if (op == OpKind::Sub)
            b ^= sign;
        if (op == OpKind::Fma)
            c = touch(ctx, op, Stage::OperandC, f.totalBits, c) &
                f.valueMask();
        return hostArith(op, f, a, b, c);
      case Stage::Result: {
        // A finite non-zero result certainly comes out of roundPack,
        // which touches it once: every return of these bodies before
        // roundPack gives a NaN, an infinity or a zero. A result that
        // overflows to infinity or underflows to zero may come from
        // either, so it stays on softfloat.
        if (op == OpKind::Sub)
            b ^= sign;
        const std::uint64_t r = hostArith(op, f, a, b, c);
        const FpClass rc = classify(f, r);
        if (rc != FpClass::Normal && rc != FpClass::Subnormal)
            return std::nullopt;
        return touch(ctx, op, Stage::Result, f.totalBits, r) &
               f.valueMask();
      }
      default:
        return std::nullopt;
    }
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

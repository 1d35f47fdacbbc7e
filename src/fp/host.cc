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
 * and the conversions. Single and double fma chains also run here:
 * each chain loop (fmaRun*, fmaMasked*) is two function templates,
 * one built for the FMA instruction set and one for the baseline,
 * instantiated below for single and double, and a CPU feature flag
 * picks the compilation. Their declarations in
 * fp/host.hh repeat the definitions' target("fma"): GCC drops the
 * attribute from a template defined after a declaration without it,
 * and the FMA-unit copies then call libm's fma, a slowdown no result
 * shows (the fma_unit_objdump test looks for vfmadd in each).
 *
 * Struck single/double ops run here too, under one rule
 * (hostStruckOp): the fault's bit rule (StrikeTrigger::hit) around
 * the host op when it hits an operand or a finite non-zero result,
 * and the host op alone for a product whose stuck-at bit already
 * holds its value. hostStruck applies it to one op; fmaStruckRun's
 * masked loop applies it to every struck op of a chain under a
 * persistent fault. The block gate's HostFp<P> (fp/host.hh) runs the
 * same per-format ops inline in the kernels that adopt it.
 *
 * Placement: each chain loop is short and runs thousands of times
 * per execution, and moving fmaRunFmaUnit by a few bytes with
 * identical instructions once slowed an mxm single execution by 15%.
 * Every compilation of a chain loop is therefore aligned to a cache
 * line, as nn's forward() and step() are, and this file builds with
 * -falign-loops=64, so each loop itself starts a line: with only the
 * function aligned, fmaRunFmaUnit's loop sat at offset 32 and ran an
 * mxm single execution about 10% slower than at offset 0.
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

#include <algorithm>
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
 * The host op @p op of the patterns @p a, @p b, @p c of F (sub: b
 * negated, as the softfloat core does; c is read by fma only).
 */
template <Format F>
[[gnu::always_inline]] inline Native<F>
hostOp(OpKind op, std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    const Native<F> x = toNative<F>(a);
    const Native<F> y = toNative<F>(b);
    switch (op) {
      case OpKind::Sub: return hostAdd<F>(x, hostNeg<F>(y));
      case OpKind::Mul: return hostMul<F>(x, y);
      case OpKind::Div: return hostDiv<F>(x, y);
      case OpKind::Fma: return hostFma<F>(x, y, toNative<F>(c));
      default:          return hostAdd<F>(x, y);
    }
}

/**
 * The one rule of the host routes for a struck add, sub, mul, div or
 * fma of single or double F, whose trigger @p t carries the fault's
 * bit rule: the result of the softfloat body of @p op on the patterns
 * @p a, @p b, @p c, with the same hits counted on @p t, or nullopt
 * when the caller must run that body. hostStruck applies it to one op
 * and fmaMaskedBody to each struck op of a chain.
 */
template <Format F>
[[gnu::always_inline]] inline std::optional<Native<F>>
hostStruckOp(StrikeTrigger &t, OpKind op, std::uint64_t a, std::uint64_t b,
             std::uint64_t c)
{
    constexpr unsigned w = F.totalBits;
    switch (t.stage) {
      // The softfloat bodies read every operand before anything
      // else, and only fma reads a third.
      case Stage::OperandA:
        return hostOp<F>(op, t.hit(w, a), b, c);
      case Stage::OperandB:
        return hostOp<F>(op, a, t.hit(w, b), c);
      case Stage::OperandC:
        return hostOp<F>(op, a, b, op == OpKind::Fma ? t.hit(w, c) : c);
      case Stage::Result: {
        // A finite non-zero result certainly comes out of roundPack,
        // which touches it once: every return of these bodies before
        // roundPack gives a NaN, an infinity or a zero. A result that
        // overflows to infinity or underflows to zero may come from
        // either, so it stays on softfloat.
        const std::uint64_t r = toBits<F>(hostOp<F>(op, a, b, c));
        const FpClass rc = classify(F, r);
        if (rc != FpClass::Normal && rc != FpClass::Subnormal)
            return std::nullopt;
        return toNative<F>(t.hit(w, r));
      }
      case Stage::ProductLo:
      case Stage::ProductHi: {
        // With finite operands the fma body forms the significand
        // product and touches both halves. A stuck-at bit that already
        // holds its value leaves the product, and so the rest of the
        // body, un-struck: the result is the host's. The hit is
        // counted after that check, the rule's one use outside hit().
        constexpr int kTop = F.maxBiasedExp();
        if (op != OpKind::Fma || t.rule == BitRule::Flip ||
            biasedExpOf(F, a) == kTop || biasedExpOf(F, b) == kTop ||
            biasedExpOf(F, c) == kTop)
            return std::nullopt;
        const U128 prod = static_cast<U128>(unpackFinite(F, a).sig) *
                          unpackFinite(F, b).sig;
        const bool lo = t.stage == Stage::ProductLo;
        const auto v = static_cast<std::uint64_t>(lo ? prod : prod >> 64);
        if (t.corrupt(lo ? 64 : productHiWidth(F), v) != v)
            return std::nullopt;
        ++t.hits;
        return hostOp<F>(op, a, b, c);
      }
      default:
        return std::nullopt;
    }
}

/**
 * The loop of the fmaMasked* compilations: fmaRunBody, except that
 * ops 0, units, 2 units, ... are struck by the persistent trigger of
 * @p ctx. Each struck op takes hostStruckOp, or runs fpFma, the per-op
 * route, after the ops before it are entered when the rule declines
 * it. Every op is entered by the end.
 */
template <Precision P, class T>
[[gnu::always_inline]] inline T
fmaMaskedBody(const Fp<P> *a, std::size_t sa, const Fp<P> *b,
              std::size_t sb, std::size_t n, T acc, FpContext &ctx)
{
    constexpr Format F = formatOf(P);
    constexpr auto kFma = static_cast<std::size_t>(OpKind::Fma);
    StrikeTrigger &t = *ctx.strike;
    const std::uint64_t units = t.units;
    std::size_t i = 0, entered = 0;
    while (i < n) {
        const std::uint64_t x = a[i * sa].bits();
        const std::uint64_t y = b[i * sb].bits();
        const std::uint64_t z = toBits<F>(acc);
        if (const auto r = hostStruckOp<F>(t, OpKind::Fma, x, y, z)) {
            acc = *r;
        } else {
            ctx.opCount[kFma] += i - entered;
            t.skip(OpKind::Fma, i - entered);
            acc = toNative<F>(fpFma(F, x, y, z));
            entered = i + 1;
        }
        const std::size_t end = n - i > units ? i + units : n;
        for (++i; i < end; ++i) {
            acc = canonical(std::fma(toNative<F>(a[i * sa].bits()),
                                     toNative<F>(b[i * sb].bits()), acc));
        }
    }
    ctx.opCount[kFma] += n - entered;
    t.skip(OpKind::Fma, n - entered);
    return acc;
}

/** The fmaMasked* compilation this CPU runs best. */
template <Precision P, class T>
T
fmaMasked(const Fp<P> *a, std::size_t sa, const Fp<P> *b, std::size_t sb,
          std::size_t n, T acc, FpContext &ctx)
{
#if MPARCH_FP_FMA_UNIT
    if (hostHasFmaUnit)
        return fmaMaskedFmaUnit(a, sa, b, sb, n, acc, ctx);
#endif
    return fmaMaskedPlain(a, sa, b, sb, n, acc, ctx);
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

} // namespace

#if MPARCH_FP_FMA_UNIT
const bool hostHasFmaUnit = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma") != 0;
}();

template <Precision P, class T>
[[gnu::target("fma"), gnu::aligned(64)]] T
fmaRunFmaUnit(const Fp<P> *a, std::size_t sa, const Fp<P> *b,
              std::size_t sb, std::size_t n, T acc)
{
    return fmaRunBody(a, sa, b, sb, n, acc);
}

template <Precision P, class T>
[[gnu::target("fma"), gnu::aligned(64)]] T
fmaMaskedFmaUnit(const Fp<P> *a, std::size_t sa, const Fp<P> *b,
                 std::size_t sb, std::size_t n, T acc, FpContext &ctx)
{
    return fmaMaskedBody(a, sa, b, sb, n, acc, ctx);
}
#endif

template <Precision P, class T>
[[gnu::aligned(64)]] T
fmaRunPlain(const Fp<P> *a, std::size_t sa, const Fp<P> *b, std::size_t sb,
            std::size_t n, T acc)
{
    return fmaRunBody(a, sa, b, sb, n, acc);
}

template <Precision P, class T>
[[gnu::aligned(64)]] T
fmaMaskedPlain(const Fp<P> *a, std::size_t sa, const Fp<P> *b,
               std::size_t sb, std::size_t n, T acc, FpContext &ctx)
{
    return fmaMaskedBody(a, sa, b, sb, n, acc, ctx);
}

template <Precision P>
std::size_t
fmaStruckRun(const Fp<P> *a, std::size_t sa, const Fp<P> *b, std::size_t sb,
             std::size_t n, Fp<P> &acc)
{
    constexpr Format F = formatOf(P);
    FpContext *ctx = currentContext();
    const StrikeTrigger *t = ctx != nullptr && ctx->hook != nullptr
                                 ? ctx->strike : nullptr;
    if (t == nullptr || t->mode != StrikeTrigger::Mode::Persistent ||
        t->unstruck(OpKind::Fma, 1) != 0 || !hostFpuReady())
        return 0;
    // The head op is struck, and so is every units-th after it up to
    // the end of the trigger's window.
    std::uint64_t len = n;
    if (t->period != 0) {
        const std::uint64_t phase =
            t->seen[static_cast<std::size_t>(OpKind::Fma)] % t->period;
        len = std::min(len, std::min(t->hi, t->period) - phase);
    }
    acc = Fp<P>::fromBits(toBits<F>(
        fmaMasked(a, sa, b, sb, static_cast<std::size_t>(len),
                  toNative<F>(acc.bits()), *ctx)));
    return static_cast<std::size_t>(len);
}

// The chain loops and fmaStruckRun in single and double.
using FpS = Fp<Precision::Single>;
using FpD = Fp<Precision::Double>;
using std::size_t;

#if MPARCH_FP_FMA_UNIT
template float fmaRunFmaUnit(const FpS *, size_t, const FpS *, size_t,
                             size_t, float);
template double fmaRunFmaUnit(const FpD *, size_t, const FpD *, size_t,
                              size_t, double);
template float fmaMaskedFmaUnit(const FpS *, size_t, const FpS *, size_t,
                                size_t, float, FpContext &);
template double fmaMaskedFmaUnit(const FpD *, size_t, const FpD *, size_t,
                                 size_t, double, FpContext &);
#endif
template float fmaRunPlain(const FpS *, size_t, const FpS *, size_t, size_t,
                           float);
template double fmaRunPlain(const FpD *, size_t, const FpD *, size_t, size_t,
                            double);
template float fmaMaskedPlain(const FpS *, size_t, const FpS *, size_t,
                              size_t, float, FpContext &);
template double fmaMaskedPlain(const FpD *, size_t, const FpD *, size_t,
                               size_t, double, FpContext &);
template size_t fmaStruckRun(const FpS *, size_t, const FpS *, size_t,
                             size_t, FpS &);
template size_t fmaStruckRun(const FpD *, size_t, const FpD *, size_t,
                             size_t, FpD &);

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
    StrikeTrigger *strike = ctx.hooked ? ctx.ctx->strike : nullptr;
    if (strike == nullptr || !hostFpuReady() ||
        (f != kSingle && f != kDouble))
        return std::nullopt;
    const auto struck = [&]<Format F>() -> std::optional<std::uint64_t> {
        const std::uint64_t m = F.valueMask();
        const auto r = hostStruckOp<F>(*strike, op, a & m, b & m, c & m);
        if (!r)
            return std::nullopt;
        return toBits<F>(*r);
    };
    return f == kSingle ? struck.template operator()<kSingle>()
                        : struck.template operator()<kDouble>();
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

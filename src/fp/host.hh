/**
 * @file
 * The host-FPU ops and the block gate.
 *
 * detail::host{Add,Mul,Div,Sqrt,Fma}<F> compute one op of the memory
 * format F on the host FPU, bit-identical to the softfloat core under
 * round-to-nearest-even (host.cc says why for each format), on the
 * Native<F> value an op hands to the next. The per-op gate (fpAdd &
 * co. through the runtime-format entry points in host.cc) and
 * HostFp<P> below run these same definitions.
 *
 * The block gate decides once per kernel block instead of once per
 * op. A kernel templates its block body over the value type:
 * Fp<P> is the per-op gated reference, HostFp<P> runs every op on
 * the host with no context, no trigger and no hook, counting into a
 * block-local HostTally. runBlock() picks HostFp<P> when an upper
 * bound on the block's ops per kind is wholly un-struck
 * (detail::peekBlock) and then enters the ops the block actually ran
 * (detail::commitBlock), so op counts and strike-trigger state end
 * exactly where the per-op route leaves them.
 *
 * Native math lives only here and in host.cc (the host-math lint
 * rule). These inline ops are compiled in kernel translation units
 * too, so mparch_fp passes -ffp-contract=off to its consumers as
 * well (PUBLIC in src/fp/CMakeLists.txt): no host a*b+c is fused.
 */

#ifndef MPARCH_FP_HOST_HH
#define MPARCH_FP_HOST_HH

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "fp/value.hh"

namespace mparch::fp {

namespace detail {

/** widenHalf's infinities, and its NaNs as the core's quiet NaN. */
[[gnu::cold, gnu::noinline]] inline float
widenHalfRare(std::uint32_t x)
{
    return std::bit_cast<float>(
        (x & 0x3ffu) == 0 ? ((x & 0x8000u) << 16) | 0x7f800000u
                          : static_cast<std::uint32_t>(quietNaN(kSingle)));
}

/**
 * binary16 bits -> the same value as a float (exact), bit for bit
 * what the softfloat core's half-to-single conversion returns. Behind
 * one range check, a finite pattern moves into a float's fields as
 * is, which reads as its value times 2^-112 (a float subnormal for a
 * half subnormal), and one exact multiplication by 2^112 rescales it;
 * infinities and NaNs take the cold widenHalfRare. Like every host
 * op, it assumes the IEEE default host mode (hostFpuReady): under
 * denormals-are-zero the multiplication would read a subnormal as 0.
 *
 * Zeros stay on the fast path: a CNN's inputs are largely exact
 * zeros, and a branch between them and normal values mispredicts.
 * Always inline: out of line, the call costs a half op most of what
 * the fast path saves (docs/performance.md).
 */
[[gnu::always_inline]] inline float
widenHalf(std::uint64_t h)
{
    const auto x = static_cast<std::uint32_t>(h);
    const std::uint32_t mag = x & 0x7fffu;
    if (mag < 0x7c00u) [[likely]] {
        return std::bit_cast<float>(((x & 0x8000u) << 16) | (mag << 13)) *
               0x1p112f;
    }
    return widenHalfRare(x);
}

/** bfloat16 is the top half of a binary32 pattern (exact). */
[[gnu::always_inline]] inline float
widenBfloat16(std::uint64_t b)
{
    return std::bit_cast<float>(static_cast<std::uint32_t>(b) << 16);
}

/** A half or bfloat16 pattern as a float (exact). */
template <Format F>
[[gnu::always_inline]] inline float
widen16(std::uint64_t a)
{
    static_assert(F == kHalf || F == kBfloat16);
    if constexpr (F == kHalf)
        return widenHalf(a);
    else
        return widenBfloat16(a);
}

/**
 * The grid of the 16-bit format F on the bit patterns of the host
 * format S (kSingle or kDouble), which keeps kDrop more fraction bits
 * than F.
 */
template <Format F, Format S>
struct Grid16
{
    static_assert(F == kHalf || F == kBfloat16);
    static_assert(S == kSingle || S == kDouble);
    using Bits = std::conditional_t<S == kSingle, std::uint32_t,
                                    std::uint64_t>;
    static constexpr unsigned kDrop = S.manBits - F.manBits;
    static constexpr Bits kHalfUlp = Bits{1} << (kDrop - 1);
    static constexpr Bits kMag = static_cast<Bits>(S.valueMask() >> 1);
    // mag - kRebias puts F's biased exponent into S's field.
    static constexpr Bits kRebias =
        static_cast<Bits>(S.bias() - F.bias()) << S.manBits;
    // Magnitudes that round to a normal F value lie in [kMinNormal,
    // kOverflow); F's max + ulp/2 and above round to infinity.
    static constexpr Bits kMinNormal = kRebias + S.hiddenBit();
    static constexpr Bits kOverflow =
        kRebias + (static_cast<Bits>(infinity(F, false)) << kDrop) -
        kHalfUlp;

    /** Whether the S magnitude @p mag rounds to a normal F value. */
    static constexpr bool
    normal(Bits mag)
    {
        return mag - kMinNormal < kOverflow - kMinNormal;
    }

    /**
     * The S pattern @p u with its dropped bits rounded half-to-even
     * into the kept ones by one addition (a carry bumps the
     * exponent); the dropped bits are left as garbage. For a zero or
     * a normal() magnitude, so the carry stops below the sign bit.
     */
    static constexpr Bits
    roundKept(Bits u)
    {
        return u + (kHalfUlp - 1) + ((u >> kDrop) & 1u);
    }
};

/**
 * narrow()'s rare cases on the S pattern @p u, whose magnitude
 * Grid16<F, S>::normal refuses: NaN, overflow, and results below F's
 * normal range, rounded half-to-even to a multiple of F's smallest
 * subnormal.
 */
template <Format F, Format S>
[[gnu::cold, gnu::noinline]] std::uint64_t
narrowRare(std::uint64_t u)
{
    using G = Grid16<F, S>;
    constexpr std::uint64_t kInf = infinity(F, false);
    const std::uint64_t sign = (u >> S.signPos()) << F.signPos();
    const std::uint64_t mag = u & G::kMag;
    if (mag > infinity(S, false))
        return quietNaN(F);
    if (mag >= G::kOverflow)
        return sign | kInf;
    // Subnormal: value = m * 2^(e - bias - manBits) in S, counted in
    // units of F's smallest subnormal 2^(minExp - manBits).
    const int biased = static_cast<int>(mag >> S.manBits);
    const int e = biased == 0 ? 1 : biased;
    const std::uint64_t m =
        (mag & S.manMask()) | (biased == 0 ? 0 : S.hiddenBit());
    const int shift = S.bias() + S.manBits + F.minExp() - F.manBits - e;
    if (shift > S.manBits + 1)  // below half the smallest subnormal
        return sign;
    const std::uint64_t half = 1ULL << (shift - 1);
    return sign | ((m + (half - 1) + ((m >> shift) & 1u)) >> shift);
}

/** round16's rare cases: the value of narrowRare's F pattern. */
template <Format F>
[[gnu::cold, gnu::noinline]] double
round16Rare(double v)
{
    return widen16<F>(narrowRare<F, kDouble>(std::bit_cast<std::uint64_t>(v)));
}

/**
 * @p v rounded to nearest-even on the grid of the 16-bit format F:
 * exact in double, and the value of narrow()'s result. A zero or a
 * result in F's normal range rounds v's pattern in place (roundKept)
 * behind one range check; NaN, overflow and subnormal results take
 * the cold round16Rare.
 */
template <Format F>
[[gnu::always_inline]] inline double
round16(double v)
{
    using G = Grid16<F, kDouble>;
    constexpr std::uint64_t kKeep = ~(2 * G::kHalfUlp - 1);
    const auto u = std::bit_cast<std::uint64_t>(v);
    const std::uint64_t mag = u & G::kMag;
    if (G::normal(mag) | (mag == 0)) [[likely]]
        return std::bit_cast<double>(G::roundKept(u) & kKeep);
    return round16Rare<F>(v);
}

/**
 * The F pattern of @p v, a double on F's grid (a round16 result): a
 * normal value rebiases and shifts behind one range check; zeros,
 * subnormals, infinities and NaNs take narrowRare, exact on them.
 */
template <Format F>
[[gnu::always_inline]] inline std::uint64_t
pack16(double v)
{
    using G = Grid16<F, kDouble>;
    const auto u = std::bit_cast<std::uint64_t>(v);
    const std::uint64_t mag = u & G::kMag;
    if (G::normal(mag)) [[likely]]
        return (u >> 63 << F.signPos()) | ((mag - G::kRebias) >> G::kDrop);
    return narrowRare<F, kDouble>(u);
}

/**
 * One round-to-nearest-even narrowing of the binary32 (S = kSingle)
 * or binary64 (S = kDouble) pattern @p u to the 16-bit format F: the
 * pattern of round16's value. The normal range rounds (roundKept)
 * and rebiases behind a single range check; the rest is narrowRare.
 * Composed as pack16 after round16 it would check the range twice,
 * which measured slower for the per-op host ops and fma16
 * (docs/performance.md).
 */
template <Format F, Format S>
[[gnu::always_inline]] inline std::uint64_t
narrow(std::uint64_t u)
{
    using G = Grid16<F, S>;
    const auto mag = static_cast<typename G::Bits>(u & G::kMag);
    if (G::normal(mag)) [[likely]] {
        const std::uint64_t sign = (u >> S.signPos()) << F.signPos();
        return sign | ((G::roundKept(mag) - G::kRebias) >> G::kDrop);
    }
    return narrowRare<F, S>(u);
}

/**
 * What a host op of format F computes on and hands to the next op:
 * single and double travel as float and double, half and bfloat16
 * as their pattern (each op widens, computes and narrows once).
 */
template <Format F>
using Native = std::conditional_t<
    F == kSingle, float,
    std::conditional_t<F == kDouble, double, std::uint64_t>>;

/** The pattern @p a of F as its Native value (exact). */
template <Format F>
Native<F>
toNative(std::uint64_t a)
{
    if constexpr (F == kSingle)
        return std::bit_cast<float>(static_cast<std::uint32_t>(a));
    else if constexpr (F == kDouble)
        return std::bit_cast<double>(a);
    else
        return a;
}

/** The pattern of the Native value @p v of F (exact). */
template <Format F>
std::uint64_t
toBits(Native<F> v)
{
    if constexpr (F == kSingle)
        return std::bit_cast<std::uint32_t>(v);
    else if constexpr (F == kDouble)
        return std::bit_cast<std::uint64_t>(v);
    else
        return v;
}

/**
 * The softfloat core's quiet NaN as a float or double. Out of line
 * and cold, so canonical()'s NaN test stays a branch: as a select it
 * would lengthen the dependency chain of a value carried from op to
 * op (a host block's fma chain) and move it out of its register.
 */
template <class T>
[[gnu::cold, gnu::noinline]] T
quietNaNOf()
{
    static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>);
    constexpr Format f = std::is_same_v<T, float> ? kSingle : kDouble;
    return toNative<f>(quietNaN(f));
}

/** @p v with a NaN replaced by the softfloat core's quietNaN. */
template <class T>
T
canonical(T v)
{
    if (std::isnan(v)) [[unlikely]]
        return quietNaNOf<T>();
    return v;
}

/**
 * Run @p op natively in F: single and double as themselves, half and
 * bfloat16 in float with one narrowing.
 */
template <Format F, class Op>
[[gnu::always_inline]] inline Native<F>
hostBinary(Native<F> a, Native<F> b, Op op)
{
    if constexpr (F == kSingle || F == kDouble) {
        return canonical(op(a, b));
    } else {
        return narrow<F, kSingle>(std::bit_cast<std::uint32_t>(
            op(widen16<F>(a), widen16<F>(b))));
    }
}

template <Format F>
[[gnu::always_inline]] inline Native<F>
hostAdd(Native<F> a, Native<F> b)
{
    return hostBinary<F>(a, b, [](auto x, auto y) { return x + y; });
}

template <Format F>
[[gnu::always_inline]] inline Native<F>
hostMul(Native<F> a, Native<F> b)
{
    return hostBinary<F>(a, b, [](auto x, auto y) { return x * y; });
}

template <Format F>
[[gnu::always_inline]] inline Native<F>
hostDiv(Native<F> a, Native<F> b)
{
    return hostBinary<F>(a, b, [](auto x, auto y) { return x / y; });
}

template <Format F>
[[gnu::always_inline]] inline Native<F>
hostSqrt(Native<F> a)
{
    return hostBinary<F>(a, a, [](auto x, auto) { return std::sqrt(x); });
}

/** -a: a sign flip, as fpNeg. */
template <Format F>
[[gnu::always_inline]] inline Native<F>
hostNeg(Native<F> a)
{
    if constexpr (F == kSingle || F == kDouble)
        return -a;
    else
        return fpNeg(F, a);
}

/**
 * hostFma's answer when a half/bfloat16 fma's sum is not provably
 * exact: the caller runs softfloat. No host result has this pattern,
 * as NaNs are canonicalised. A plain integer keeps the answer in a
 * register, where a std::optional return costs a store-forwarding
 * stall per op.
 */
inline constexpr std::uint64_t kHostDeclined = ~std::uint64_t{0};

/**
 * The body of every host half/bfloat16 fma: @p s = x * y + z in
 * double, for exact 16-bit values x, y and z. Their product is exact
 * there (at most 22 significant bits, exponents far inside double's
 * range), so the addition is the only rounding before the one to F;
 * TwoSum tells whether it rounded. Returns false when it did: the
 * rounding to F would then round twice.
 */
[[gnu::always_inline]] inline bool
fmaSum(double x, double y, double z, double &s)
{
    const double p = x * y;
    s = p + z;
    if (std::isfinite(s)) {
        // TwoSum: s + err == p + z exactly.
        const double zv = s - p;
        const double err = (p - (s - zv)) + (z - zv);
        if (err != 0) [[unlikely]]
            return false;
    }
    return true;
}

/** Half/bfloat16 fma on patterns: fmaSum narrowed, or kHostDeclined. */
template <Format F>
[[gnu::always_inline]] inline std::uint64_t
fma16(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    double s = 0;
    if (!fmaSum(widen16<F>(a), widen16<F>(b), widen16<F>(c), s))
        return kHostDeclined;
    return narrow<F, kDouble>(std::bit_cast<std::uint64_t>(s));
}

/** a * b + c in F; half/bfloat16 may return kHostDeclined. */
template <Format F>
[[gnu::always_inline]] inline Native<F>
hostFma(Native<F> a, Native<F> b, Native<F> c)
{
    if constexpr (F == kSingle || F == kDouble)
        return canonical(std::fma(a, b, c));
    else
        return fma16<F>(a, b, c);
}

/**
 * Whether this build compiles fmaRunFmaUnit: GNU-compatible
 * compilers targeting x86, where the FMA instructions are an
 * extension the CPU reports at run time.
 */
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define MPARCH_FP_FMA_UNIT 1
#else
#define MPARCH_FP_FMA_UNIT 0
#endif

/**
 * The host block of fmaChain in single and double: acc = fma(a[i *
 * sa], b[i * sb], acc) for i < @p n on the host, each NaN result
 * canonicalised. host.cc compiles one loop twice, as two templates
 * it instantiates for single (T float) and double (T double):
 * fmaRunFmaUnit for the FMA instruction set, fmaRunPlain for the
 * baseline target, where std::fma is a libm call. An IEEE fma is
 * correctly rounded, so both return the same bits; fmaRun() takes the
 * first when hostHasFmaUnit says the CPU runs it. Half and bfloat16
 * chains stay inline (fmaSum): their fma is not the instruction.
 *
 * The *FmaUnit declarations carry the target attribute of their
 * definitions: GCC drops it from a template definition whose earlier
 * declaration lacks it, and the copy then calls libm's fma (the
 * fma_unit_objdump test checks for the instruction).
 */
template <Precision P, class T>
T fmaRunPlain(const Fp<P> *a, std::size_t sa, const Fp<P> *b,
              std::size_t sb, std::size_t n, T acc);

#if MPARCH_FP_FMA_UNIT
template <Precision P, class T>
[[gnu::target("fma")]] T fmaRunFmaUnit(const Fp<P> *a, std::size_t sa,
                                       const Fp<P> *b, std::size_t sb,
                                       std::size_t n, T acc);

/** __builtin_cpu_supports("fma"), read once at start-up (false
 *  before that: the plain compilation is never wrong). */
extern const bool hostHasFmaUnit;
#else
inline constexpr bool hostHasFmaUnit = false;
#endif

/**
 * The masked loop of fmaChain in single and double, compiled and
 * instantiated like fmaRun*: acc = fma(a[i * sa], b[i * sb], acc) for
 * i < @p n, where ops 0, units, 2 units, ... are struck by the
 * persistent trigger of @p ctx, the current context. Each struck op
 * goes through the rule of hostStruck (host.cc): the trigger's bit
 * rule around the host fma when the fault hits an operand or a finite
 * non-zero result, the host fma alone for a product half a stuck-at
 * bit leaves unchanged, and fpFma for the rest. All n ops are entered
 * in @p ctx, as the per-op loop enters them; fmaStruckRun calls this.
 */
template <Precision P, class T>
T fmaMaskedPlain(const Fp<P> *a, std::size_t sa, const Fp<P> *b,
                 std::size_t sb, std::size_t n, T acc, FpContext &ctx);
#if MPARCH_FP_FMA_UNIT
template <Precision P, class T>
[[gnu::target("fma")]] T fmaMaskedFmaUnit(const Fp<P> *a, std::size_t sa,
                                          const Fp<P> *b, std::size_t sb,
                                          std::size_t n, T acc,
                                          FpContext &ctx);
#endif

/**
 * fmaChain's struck op at the head of a[0..n), b[0..n) in single or
 * double (host.cc instantiates those two). When the installed trigger
 * is persistent and strikes this op, and the host FPU is in its IEEE
 * default mode, the ops from the head to the end of the trigger's
 * window (or the n) run in fmaMasked*, entered, counted and struck
 * as the per-op loop runs them (each struck op under hostStruck's
 * rule), and @p acc is their result. Returns how many ran; 0 leaves
 * the head op to the per-op route.
 */
template <Precision P>
std::size_t fmaStruckRun(const Fp<P> *a, std::size_t sa, const Fp<P> *b,
                         std::size_t sb, std::size_t n, Fp<P> &acc);

/** The fmaRun* compilation this CPU runs best. */
template <Precision P, class T>
T
fmaRun(const Fp<P> *a, std::size_t sa, const Fp<P> *b, std::size_t sb,
       std::size_t n, T acc)
{
#if MPARCH_FP_FMA_UNIT
    if (hostHasFmaUnit)
        return fmaRunFmaUnit(a, sa, b, sb, n, acc);
#endif
    return fmaRunPlain(a, sa, b, sb, n, acc);
}

/**
 * The softfloat fma body with no op entry and no hook (fma.cc), at
 * round-to-nearest-even: what fpFma computes for an un-struck op the
 * host declined.
 */
std::uint64_t fmaUnhooked(Format f, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c);

/**
 * A step of a widened 16-bit fma chain that fmaSum declined: the
 * softfloat body on the packed accumulator @p acc, widened back.
 */
template <Format F>
[[gnu::cold, gnu::noinline]] double
fmaDeclined(std::uint64_t a, std::uint64_t b, double acc)
{
    return widen16<F>(fmaUnhooked(F, a, b, pack16<F>(acc)));
}

} // namespace detail

/** The ops a host block ran, per kind, and the kind of the last. */
struct HostTally
{
    OpCounts ops{};
    OpKind last = OpKind::NumKinds;

    void
    add(OpKind op)
    {
        ++ops[static_cast<std::size_t>(op)];
        last = op;
    }
};

/**
 * A value of precision P inside a host block: every op is the host
 * op of its format, NaN results are canonicalised per op, and the op
 * is counted in the block's HostTally. No FpContext, trigger or hook
 * sees it; only runBlock() and fmaChain() make these, for blocks the
 * gate proved un-struck.
 */
template <Precision P>
class HostFp
{
    // Every Precision is a format the host admits (internal.hh).
    static constexpr Format F = formatOf(P);
    using Native = detail::Native<F>;

  public:
    static constexpr Format format() { return F; }

    /** The stored value @p v, counting into @p tally. */
    HostFp(Fp<P> v, HostTally &tally)
        : v_(detail::toNative<F>(v.bits())), tally_(&tally)
    {}

    /** Back to the stored type. */
    explicit operator Fp<P>() const { return Fp<P>::fromBits(bits()); }

    std::uint64_t bits() const { return detail::toBits<F>(v_); }

    /** A value of the same block with the pattern @p bits. */
    HostFp
    withBits(std::uint64_t bits) const
    {
        return {detail::toNative<F>(bits), tally_};
    }

    [[gnu::always_inline]] HostFp
    operator+(HostFp o) const
    {
        return counted(OpKind::Add, detail::hostAdd<F>(v_, o.v_));
    }
    [[gnu::always_inline]] HostFp
    operator-(HostFp o) const
    {
        return counted(OpKind::Sub,
                       detail::hostAdd<F>(v_, detail::hostNeg<F>(o.v_)));
    }
    [[gnu::always_inline]] HostFp
    operator*(HostFp o) const
    {
        return counted(OpKind::Mul, detail::hostMul<F>(v_, o.v_));
    }
    [[gnu::always_inline]] HostFp
    operator/(HostFp o) const
    {
        return counted(OpKind::Div, detail::hostDiv<F>(v_, o.v_));
    }
    HostFp operator-() const { return {detail::hostNeg<F>(v_), tally_}; }

    /**
     * Fused multiply-add. A half/bfloat16 fma the host declines runs
     * the softfloat body un-hooked: the block is un-struck, so there
     * is nothing to inject and nothing to restart.
     */
    [[gnu::always_inline]] friend HostFp
    fma(HostFp a, HostFp b, HostFp c)
    {
        Native r = detail::hostFma<F>(a.v_, b.v_, c.v_);
        if constexpr (F == kHalf || F == kBfloat16) {
            if (r == detail::kHostDeclined) [[unlikely]]
                r = detail::fmaUnhooked(F, a.v_, b.v_, c.v_);
        }
        return a.counted(OpKind::Fma, r);
    }

    /** fpExp's composition on host ops (transcendental.cc). */
    template <Precision Q>
    friend HostFp<Q> exp(HostFp<Q> a);

  private:
    HostFp(Native v, HostTally *tally) : v_(v), tally_(tally) {}

    HostFp
    counted(OpKind op, Native v) const
    {
        tally_->add(op);
        return {v, tally_};
    }

    Native v_;
    HostTally *tally_;
};

template <Precision P>
HostFp<P> exp(HostFp<P> a);

/**
 * An upper bound on the ops one exp of format @p f enters, per kind,
 * the Exp itself included: its reduction and Horner fmas, and every
 * multiplication scaleByPow2 may take.
 */
OpCounts expOpBound(Format f);

/** How a block body reads stored Fp<P> values on the reference
 *  route: as themselves, through the per-op gate. */
template <Precision P>
struct SoftRoute
{
    using Value = Fp<P>;

    Value operator()(Fp<P> v) const { return v; }
};

/** How a block body reads stored Fp<P> values on the host route. */
template <Precision P>
struct HostRoute
{
    using Value = HostFp<P>;

    HostTally &tally;

    Value operator()(Fp<P> v) const { return Value(v, tally); }
};

/**
 * Run one kernel block: @p body(route) with a HostRoute when every
 * kind is un-struck for @p upper[k] ops (an upper bound on what the
 * block runs), else with a SoftRoute. The body reads its stored
 * values through route(v) and computes in `typename
 * decltype(route)::Value`, so both routes compile one source; a host
 * block's ops are then entered as the per-op route would have
 * entered them.
 */
template <Precision P, class Body>
void
runBlock(const OpCounts &upper, Body &&body)
{
    if (detail::peekBlock(upper) == upper) {
        HostTally tally;
        body(HostRoute<P>{tally});
        detail::commitBlock(tally.ops, tally.last);
        return;
    }
    body(SoftRoute<P>{});
}

/**
 * The dot-product fma chain acc = fma(a[i * sa], b[i * sb], acc) for
 * i < @p n (strides in elements), with the result, op counts,
 * trigger state, hits and hook calls of that per-op loop. The block
 * gate runs each un-struck prefix as one host block (single and
 * double through detail::fmaRun). At the op it stopped at, a
 * single/double chain under a persistent fault carries on in a host
 * loop that strikes every units-th op (detail::fmaStruckRun); any
 * other struck op goes through the per-op route.
 */
template <Precision P>
Fp<P>
fmaChain(const Fp<P> *a, std::size_t sa, const Fp<P> *b, std::size_t sb,
         std::size_t n, Fp<P> acc)
{
    constexpr Format F = formatOf(P);
    std::size_t i = 0;
    while (i < n) {
        if (const std::size_t run = detail::peekBlock(OpKind::Fma, n - i)) {
            if constexpr (F == kSingle || F == kDouble) {
                acc = Fp<P>::fromBits(detail::toBits<F>(detail::fmaRun(
                    a + i * sa, sa, b + i * sb, sb, run,
                    detail::toNative<F>(acc.bits()))));
                i += run;
            } else {
                // What the run hands on is an op result, so the
                // accumulator can travel as its exact value in double,
                // rounded in place, and be packed once at the end.
                double w = detail::widen16<F>(acc.bits());
                for (const std::size_t end = i + run; i < end; ++i) {
                    const std::uint64_t x = a[i * sa].bits();
                    const std::uint64_t y = b[i * sb].bits();
                    double s = 0;
                    if (detail::fmaSum(detail::widen16<F>(x),
                                       detail::widen16<F>(y), w, s))
                        [[likely]]
                        w = detail::round16<F>(s);
                    else
                        w = detail::fmaDeclined<F>(x, y, w);
                }
                acc = Fp<P>::fromBits(detail::pack16<F>(w));
            }
            detail::commitBlock(OpKind::Fma, run);
            if (i == n)
                break;
        }
        if constexpr (F == kSingle || F == kDouble) {
            i += detail::fmaStruckRun(a + i * sa, sa, b + i * sb, sb, n - i,
                                      acc);
            if (i == n)
                break;
        }
        acc = fma(a[i * sa], b[i * sb], acc);
        ++i;
    }
    return acc;
}

} // namespace mparch::fp

#endif // MPARCH_FP_HOST_HH

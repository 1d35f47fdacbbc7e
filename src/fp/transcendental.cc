/**
 * @file
 * In-format exponential.
 *
 * exp() is evaluated with softfloat operations in the target format:
 * a Cody-Waite range reduction (x = k*ln2 + r) followed by a Horner
 * polynomial whose degree grows with precision (4 / 6 / 13). This
 * mirrors real software transcendental implementations — GPUs execute
 * exp() as a chain of FMA/MUL instructions — so datapath faults can
 * strike inside the chain and higher precisions genuinely execute
 * more vulnerable operations, the effect behind the paper's LavaMD
 * criticality discussion (Sections 5.3 and 6.3).
 */

#include "fp/softfloat.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "fp/host.hh"
#include "fp/internal.hh"

namespace mparch::fp {

namespace {

/**
 * The format constants of fpExp, encoded once per format.
 * The encodings are silent conversions, so a table gives the same
 * bits and the same op counts as encoding them on every call.
 */
struct Constants
{
    // fpExp: two-part ln2 (r = x - k*ln2 keeps extra effective
    // precision) and the Horner coefficients 1/i!, whose degree
    // grows with precision: 4 / 6 / 13.
    std::uint64_t log2e;
    std::uint64_t negLn2Hi;
    std::uint64_t negLn2Lo;
    int expDegree;
    std::array<std::uint64_t, 14> expCoeff;
};

Constants
makeConstants(Format f)
{
    Constants k{};
    k.log2e = fpFromDouble(f, 1.4426950408889634);
    k.negLn2Hi = fpFromDouble(f, -0x1.62e42fefa38p-1);
    k.negLn2Lo = fpFromDouble(f, -0x1.ef35793c7673p-45);
    k.expDegree = f == kHalf ? 4 : f == kSingle ? 6 : 13;
    double inv_fact = 1.0;
    for (int i = 0; i <= k.expDegree; ++i) {
        if (i > 1)
            inv_fact /= i;
        k.expCoeff[static_cast<std::size_t>(i)] =
            fpFromDouble(f, inv_fact);
    }
    return k;
}

/**
 * The constants of @p f: built once for each memory format, and into
 * @p scratch for any other format (tf32, the random-format tests).
 */
const Constants &
constantsFor(Format f, Constants &scratch)
{
    static const Constants half = makeConstants(kHalf);
    static const Constants single = makeConstants(kSingle);
    static const Constants dbl = makeConstants(kDouble);
    static const Constants bf16 = makeConstants(kBfloat16);
    if (f == kSingle)
        return single;
    if (f == kDouble)
        return dbl;
    if (f == kHalf)
        return half;
    if (f == kBfloat16)
        return bf16;
    scratch = makeConstants(f);
    return scratch;
}

/** exp(x) overflows the format above this. */
double
overflowThreshold(Format f)
{
    return (f.maxExp() + 1) * std::log(2.0);
}

/** exp(x) is zero (below half the smallest subnormal) under this. */
double
underflowThreshold(Format f)
{
    return (f.minExp() - static_cast<int>(f.manBits) - 1) *
           std::log(2.0);
}

/**
 * The value type of fpExp's reference route: a pattern of a runtime
 * format whose ops run through the per-op gated softfloat core. It
 * points at the format rather than holding it: a 3-byte Format split
 * into registers and reassembled in memory for every call costs a
 * store-forwarding stall per op.
 */
struct SoftValue
{
    const Format *f;
    std::uint64_t v;

    Format format() const { return *f; }
    std::uint64_t bits() const { return v; }
    SoftValue withBits(std::uint64_t b) const { return {f, b}; }

    SoftValue operator*(SoftValue o) const { return {f, fpMul(*f, v, o.v)}; }

    friend SoftValue
    fma(SoftValue a, SoftValue b, SoftValue c)
    {
        return {a.f, fpFma(*a.f, a.v, b.v, c.v)};
    }
};

/** The largest |k| expPoly scales by in format @p f. */
long
expScaleLimit(Format f)
{
    return 2L * (f.maxExp() + static_cast<long>(f.manBits) + 2);
}

/** Multiply by 2^k without leaving the format. */
template <class V>
V
scaleByPow2(V x, long k)
{
    const Format f = x.format();
    // Split so each factor is a representable normal power of two.
    while (k != 0) {
        long step = k;
        const long lo = f.minExp();
        const long hi = f.maxExp();
        if (step > hi)
            step = hi;
        if (step < lo)
            step = lo;
        const std::uint64_t factor = packFields(
            f, false, static_cast<int>(step) + f.bias(), 0);
        x = x * x.withBits(factor);
        k -= step;
        if (isZero(f, x.bits()) || isInf(f, x.bits()) ||
            isNaN(f, x.bits()))
            break;
    }
    return x;
}

/**
 * exp's early exits, which run no op: the result for NaN, infinite,
 * zero and out-of-range operands, or nullopt when @p a takes the
 * polynomial.
 */
std::optional<std::uint64_t>
expSpecial(Format f, std::uint64_t a)
{
    const FpClass ca = classify(f, a);
    if (ca == FpClass::NaN)
        return quietNaN(f);
    if (ca == FpClass::Inf)
        return signOf(f, a) ? zero(f, false) : a;
    if (ca == FpClass::Zero)
        return one(f);

    // Range checks are control decisions (exact in real hardware's
    // early-out comparators), so the host double is fine here.
    const double xd = fpToDouble(f, a);
    if (xd > overflowThreshold(f))
        return infinity(f, false);
    if (xd < underflowThreshold(f))
        return zero(f, false);
    return std::nullopt;
}

/**
 * exp's composition of in-format ops on the value type V: the
 * range reduction, the Horner polynomial and the scaling. SoftValue
 * (fpExp) and HostFp<P> (a host block) run this one source, so both
 * routes run the same op sequence.
 */
template <class V>
V
expPoly(V a)
{
    const Format f = a.format();
    Constants scratch;
    const Constants &c = constantsFor(f, scratch);

    const V t = a * a.withBits(c.log2e);
    // Clamp k against corrupted inputs (a datapath fault upstream can
    // make t non-finite; lround would then return LONG_MIN and the
    // scaling loop below would effectively never terminate).
    const double td = fpToDouble(f, t.bits());
    const auto k_limit = static_cast<double>(expScaleLimit(f));
    const long k = std::isfinite(td)
                       ? std::lround(std::clamp(td, -k_limit, k_limit))
                       : 0;
    const V kf = a.withBits(fpFromDouble(f, static_cast<double>(k)));

    V r = fma(kf, a.withBits(c.negLn2Hi), a);
    r = fma(kf, a.withBits(c.negLn2Lo), r);

    // Horner over 1 + r + r^2/2! + ... + r^deg/deg!.
    V p = a.withBits(c.expCoeff[static_cast<std::size_t>(c.expDegree)]);
    for (int i = c.expDegree - 1; i >= 0; --i)
        p = fma(p, r, a.withBits(c.expCoeff[static_cast<std::size_t>(i)]));

    return scaleByPow2(p, k);
}

} // namespace

std::uint64_t
fpExp(Format f, std::uint64_t a)
{
    const OpKind op = OpKind::Exp;
    const OpCtx ctx = detail::enterOp(op);
    a = detail::touch(ctx, op, Stage::OperandA, f.totalBits, a) &
        f.valueMask();
    if (const auto special = expSpecial(f, a))
        return *special;
    std::uint64_t result = expPoly(SoftValue{&f, a}).bits();
    result = detail::touch(ctx, op, Stage::Result, f.totalBits, result) &
             f.valueMask();
    return result;
}

template <Precision P>
HostFp<P>
exp(HostFp<P> a)
{
    a.tally_->add(OpKind::Exp);
    if (const auto special = expSpecial(a.format(), a.bits()))
        return a.withBits(*special);
    return expPoly(a);
}

template HostFp<Precision::Half> exp(HostFp<Precision::Half>);
template HostFp<Precision::Single> exp(HostFp<Precision::Single>);
template HostFp<Precision::Double> exp(HostFp<Precision::Double>);
template HostFp<Precision::Bfloat16> exp(HostFp<Precision::Bfloat16>);

OpCounts
expOpBound(Format f)
{
    Constants scratch;
    const Constants &c = constantsFor(f, scratch);
    // scaleByPow2 multiplies by at most min(maxExp, -minExp) per step.
    const long step = std::min<long>(f.maxExp(), -f.minExp());
    OpCounts bound{};
    bound[static_cast<std::size_t>(OpKind::Exp)] = 1;
    bound[static_cast<std::size_t>(OpKind::Mul)] =
        1 + static_cast<std::uint64_t>((expScaleLimit(f) + step - 1) / step);
    bound[static_cast<std::size_t>(OpKind::Fma)] =
        2 + static_cast<std::uint64_t>(c.expDegree);
    return bound;
}

} // namespace mparch::fp

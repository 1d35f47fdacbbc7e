/**
 * @file
 * The rounding core (roundPack) plus add, sub, mul, negation and
 * comparisons.
 */

#include "fp/softfloat.hh"

#include <algorithm>

#include "fp/internal.hh"

namespace mparch::fp {

using detail::U128;
using detail::Unpacked;
using detail::unpackFinite;

std::uint64_t
shiftRightSticky(std::uint64_t v, int n)
{
    MPARCH_ASSERT(n >= 0, "negative sticky shift");
    if (n == 0)
        return v;
    if (n >= 64)
        return v != 0 ? 1 : 0;
    const std::uint64_t lost = v & maskBits(static_cast<unsigned>(n));
    return (v >> n) | (lost ? 1 : 0);
}

unsigned __int128
shiftRightSticky128(unsigned __int128 v, int n)
{
    MPARCH_ASSERT(n >= 0, "negative sticky shift");
    if (n == 0)
        return v;
    if (n >= 128)
        return v != 0 ? 1 : 0;
    const U128 lost = v & ((U128{1} << n) - 1);
    return (v >> n) | (lost ? 1 : 0);
}

namespace {

/** Round half to even: whether to bump the kept magnitude. */
bool
roundUp(std::uint64_t low3, bool lsb_odd)
{
    return low3 > 4 || (low3 == 4 && lsb_odd);
}

} // namespace

std::uint64_t
roundPack(Format f, RawFloat raw, const OpCtx &ctx, OpKind op)
{
    // Normalisation target: hidden bit at manBits + 3 leaves three
    // guard/round/sticky positions below the kept significand.
    const int norm_pos = static_cast<int>(f.manBits) + 3;

    if (raw.sig == 0)
        return zero(f, raw.sign);

    int hb = highestSetBit(raw.sig);
    int shift = hb - norm_pos;
    if (shift > 0) {
        raw.sig = shiftRightSticky(raw.sig, shift);
    } else if (shift < 0) {
        raw.sig <<= -shift;
    }
    raw.exp += shift;

    raw.sig = detail::touch(ctx, op, Stage::PreRoundSig,
                            static_cast<unsigned>(norm_pos + 1), raw.sig);
    if (raw.sig == 0)
        return zero(f, raw.sign);
    // A hook may have moved the MSB; re-normalise (inexactness from a
    // perturbed datapath is part of the fault effect being modelled).
    hb = highestSetBit(raw.sig);
    shift = hb - norm_pos;
    if (shift > 0)
        raw.sig = shiftRightSticky(raw.sig, shift);
    else if (shift < 0)
        raw.sig <<= -shift;
    raw.exp += shift;

    // True exponent of the leading bit, then biased.
    std::int64_t biased = static_cast<std::int64_t>(raw.exp) + norm_pos +
                          f.bias();
    biased = static_cast<std::int64_t>(detail::touch(
        ctx, op, Stage::ExponentLogic, f.expBits + 2u,
        static_cast<std::uint64_t>(biased)));

    std::uint64_t result;
    if (biased >= f.maxBiasedExp()) {
        result = infinity(f, raw.sign);
    } else if (biased <= 0) {
        // Subnormal (or total underflow): shift out the deficit.
        const std::int64_t deficit = 1 - biased;
        std::uint64_t sig =
            deficit > 63 ? (raw.sig ? 1 : 0)
                         : shiftRightSticky(raw.sig,
                                            static_cast<int>(deficit));
        const std::uint64_t low3 = sig & 7;
        std::uint64_t kept = sig >> 3;
        if (roundUp(low3, kept & 1))
            ++kept;
        // A carry out of the subnormal significand lands exactly on
        // the biased exponent 1 encoding, which is correct.
        result = packFields(f, raw.sign, 0, 0) + kept;
    } else {
        const std::uint64_t low3 = raw.sig & 7;
        std::uint64_t kept = raw.sig >> 3;  // includes hidden bit
        if (roundUp(low3, kept & 1))
            ++kept;
        // Compose via addition so a significand carry bumps the
        // exponent field; re-check for overflow into inf afterwards.
        std::uint64_t body =
            (static_cast<std::uint64_t>(biased - 1) << f.manBits) + kept;
        if ((body >> f.manBits) >= static_cast<std::uint64_t>(
                f.maxBiasedExp())) {
            result = infinity(f, raw.sign);
        } else {
            result = (static_cast<std::uint64_t>(raw.sign)
                      << f.signPos()) | body;
        }
    }

    result = detail::touch(ctx, op, Stage::Result, f.totalBits, result) &
             f.valueMask();
    return result;
}

namespace {

/** Shared implementation of add and sub (sub flips b's sign). */
std::uint64_t
addCore(Format f, std::uint64_t a, std::uint64_t b, OpKind op)
{
    const OpCtx ctx = detail::enterOp(op);
    if (ctx.host && detail::hostAdmits(op, f))
        return detail::hostAdd(f, a, op == OpKind::Sub ? fpNeg(f, b) : b);
    if (ctx.hooked) {
        if (const auto r = detail::hostStruck(f, ctx, op, a, b))
            return *r;
    }
    a = detail::touch(ctx, op, Stage::OperandA, f.totalBits, a) &
        f.valueMask();
    b = detail::touch(ctx, op, Stage::OperandB, f.totalBits, b) &
        f.valueMask();
    if (op == OpKind::Sub)
        b ^= 1ULL << f.signPos();

    const FpClass ca = classify(f, a);
    const FpClass cb = classify(f, b);
    if (ca == FpClass::NaN || cb == FpClass::NaN)
        return quietNaN(f);
    if (ca == FpClass::Inf && cb == FpClass::Inf) {
        return signOf(f, a) == signOf(f, b) ? a : quietNaN(f);
    }
    if (ca == FpClass::Inf)
        return a;
    if (cb == FpClass::Inf)
        return b;

    Unpacked ua = unpackFinite(f, a);
    Unpacked ub = unpackFinite(f, b);
    if (ua.sig == 0 && ub.sig == 0) {
        // (+0)+(+0)=+0, (-0)+(-0)=-0; mixed signs give +0.
        return zero(f, ua.sign && ub.sign);
    }
    if (ua.sig == 0)
        return roundPack(f, {ub.sign, ub.exp - 3, ub.sig << 3}, ctx, op);
    if (ub.sig == 0)
        return roundPack(f, {ua.sign, ua.exp - 3, ua.sig << 3}, ctx, op);

    // Order so that ua has the larger exponent.
    if (ub.exp > ua.exp)
        std::swap(ua, ub);

    std::uint64_t sa = ua.sig << 3;
    std::uint64_t sb = shiftRightSticky(ub.sig << 3, ua.exp - ub.exp);

    const unsigned sig_width = f.manBits + 5u;
    sa = detail::touch(ctx, op, Stage::AlignedSigA, sig_width, sa);
    sb = detail::touch(ctx, op, Stage::AlignedSigB, sig_width, sb);

    bool sign;
    std::uint64_t sum;
    if (ua.sign == ub.sign) {
        sign = ua.sign;
        sum = sa + sb;
    } else if (sa >= sb) {
        sign = ua.sign;
        sum = sa - sb;
    } else {
        sign = ub.sign;
        sum = sb - sa;
    }
    if (sum == 0) {
        // Exact cancellation of non-zeros gives +0.
        return zero(f, false);
    }
    return roundPack(f, {sign, ua.exp - 3, sum}, ctx, op);
}

} // namespace

std::uint64_t
fpAdd(Format f, std::uint64_t a, std::uint64_t b)
{
    return addCore(f, a, b, OpKind::Add);
}

std::uint64_t
fpSub(Format f, std::uint64_t a, std::uint64_t b)
{
    return addCore(f, a, b, OpKind::Sub);
}

std::uint64_t
fpMul(Format f, std::uint64_t a, std::uint64_t b)
{
    const OpKind op = OpKind::Mul;
    const OpCtx ctx = detail::enterOp(op);
    if (ctx.host && detail::hostAdmits(op, f))
        return detail::hostMul(f, a, b);
    if (ctx.hooked) {
        if (const auto r = detail::hostStruck(f, ctx, op, a, b))
            return *r;
    }
    a = detail::touch(ctx, op, Stage::OperandA, f.totalBits, a) &
        f.valueMask();
    b = detail::touch(ctx, op, Stage::OperandB, f.totalBits, b) &
        f.valueMask();

    const FpClass ca = classify(f, a);
    const FpClass cb = classify(f, b);
    const bool sign = signOf(f, a) != signOf(f, b);
    if (ca == FpClass::NaN || cb == FpClass::NaN)
        return quietNaN(f);
    if (ca == FpClass::Inf || cb == FpClass::Inf) {
        if (ca == FpClass::Zero || cb == FpClass::Zero)
            return quietNaN(f);
        return infinity(f, sign);
    }
    if (ca == FpClass::Zero || cb == FpClass::Zero)
        return zero(f, sign);

    const Unpacked ua = unpackFinite(f, a);
    const Unpacked ub = unpackFinite(f, b);

    U128 prod = static_cast<U128>(ua.sig) * ub.sig;
    std::uint64_t lo = static_cast<std::uint64_t>(prod);
    std::uint64_t hi = static_cast<std::uint64_t>(prod >> 64);
    lo = detail::touch(ctx, op, Stage::ProductLo, 64, lo);
    hi = detail::touch(ctx, op, Stage::ProductHi,
                       detail::productHiWidth(f), hi);
    prod = (static_cast<U128>(hi) << 64) | lo;

    int exp = ua.exp + ub.exp;
    // Compress into 64 bits, folding lost bits into sticky.
    std::uint64_t sig;
    if (prod >> 64) {
        const int top = highestSetBit(static_cast<std::uint64_t>(
                            prod >> 64)) + 65;
        const int shift = top - 62;
        prod = shiftRightSticky128(prod, shift);
        exp += shift;
        sig = static_cast<std::uint64_t>(prod);
    } else {
        sig = static_cast<std::uint64_t>(prod);
    }
    if (sig == 0)
        return zero(f, sign);
    return roundPack(f, {sign, exp, sig}, ctx, op);
}

std::uint64_t
fpAbs(Format f, std::uint64_t a)
{
    return a & (f.valueMask() >> 1);
}

namespace {

/**
 * Map a bit pattern to a signed key that orders like the real line.
 * Requires non-NaN input.
 */
std::int64_t
orderKey(Format f, std::uint64_t bits)
{
    const std::uint64_t mag = bits & (f.valueMask() >> 1);
    const auto smag = static_cast<std::int64_t>(mag);
    return signOf(f, bits) ? -smag : smag;
}

} // namespace

bool
fpEqual(Format f, std::uint64_t a, std::uint64_t b)
{
    if (isNaN(f, a) || isNaN(f, b))
        return false;
    return orderKey(f, a) == orderKey(f, b);
}

bool
fpLess(Format f, std::uint64_t a, std::uint64_t b)
{
    if (isNaN(f, a) || isNaN(f, b))
        return false;
    return orderKey(f, a) < orderKey(f, b);
}

bool
fpLessEqual(Format f, std::uint64_t a, std::uint64_t b)
{
    if (isNaN(f, a) || isNaN(f, b))
        return false;
    return orderKey(f, a) <= orderKey(f, b);
}

} // namespace mparch::fp

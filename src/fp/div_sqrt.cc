/**
 * @file
 * Division and square root via exact integer algorithms.
 */

#include "fp/softfloat.hh"

#include "fp/internal.hh"

namespace mparch::fp {

using detail::U128;
using detail::Unpacked;
using detail::normalize;
using detail::unpackFinite;

std::uint64_t
fpDiv(Format f, std::uint64_t a, std::uint64_t b)
{
    const OpKind op = OpKind::Div;
    const OpCtx ctx = detail::enterOp(op);
    if (ctx.host && detail::hostAdmits(op, f))
        return detail::hostDiv(f, a, b);
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
    if (ca == FpClass::Inf)
        return cb == FpClass::Inf ? quietNaN(f) : infinity(f, sign);
    if (cb == FpClass::Inf)
        return zero(f, sign);
    if (cb == FpClass::Zero)
        return ca == FpClass::Zero ? quietNaN(f) : infinity(f, sign);
    if (ca == FpClass::Zero)
        return zero(f, sign);

    const Unpacked ua = normalize(f, unpackFinite(f, a));
    const Unpacked ub = normalize(f, unpackFinite(f, b));

    // Quotient of two (manBits+1)-bit significands, with manBits+4
    // extra fraction bits so roundPack has guard/round plus margin.
    const int extra = static_cast<int>(f.manBits) + 4;
    const U128 num = static_cast<U128>(ua.sig) << extra;
    const std::uint64_t q = static_cast<std::uint64_t>(num / ub.sig);
    const bool rem = static_cast<std::uint64_t>(num % ub.sig) != 0;

    const int exp = ua.exp - ub.exp - extra;
    return roundPack(f, {sign, exp, q | (rem ? 1 : 0)}, ctx, op);
}

namespace {

/** Integer square root of a 128-bit value (restoring, bitwise). */
U128
isqrt128(U128 value)
{
    U128 result = 0;
    U128 bit = U128{1} << 126;
    while (bit > value)
        bit >>= 2;
    while (bit != 0) {
        if (value >= result + bit) {
            value -= result + bit;
            result = (result >> 1) + bit;
        } else {
            result >>= 1;
        }
        bit >>= 2;
    }
    return result;
}

} // namespace

std::uint64_t
fpSqrt(Format f, std::uint64_t a)
{
    const OpKind op = OpKind::Sqrt;
    const OpCtx ctx = detail::enterOp(op);
    if (ctx.host && detail::hostAdmits(op, f))
        return detail::hostSqrt(f, a);
    a = detail::touch(ctx, op, Stage::OperandA, f.totalBits, a) &
        f.valueMask();

    const FpClass ca = classify(f, a);
    if (ca == FpClass::NaN)
        return quietNaN(f);
    if (ca == FpClass::Zero)
        return a;  // sqrt(+/-0) = +/-0
    if (signOf(f, a))
        return quietNaN(f);
    if (ca == FpClass::Inf)
        return a;

    Unpacked ua = normalize(f, unpackFinite(f, a));

    // value = sig * 2^exp; make exp even so sqrt(2^exp) is exact,
    // and widen sig so the integer root keeps at least manBits+4
    // fraction bits: root(sig << pre) has ~(manBits+1+pre)/2 bits,
    // so pre = manBits+10 gives manBits+5 and stays within 128 bits
    // even for binary64 (53 + 63 = 116).
    int pre = static_cast<int>(f.manBits) + 10;
    if ((ua.exp - pre) & 1)
        ++pre;
    const U128 wide = static_cast<U128>(ua.sig) << pre;
    const U128 root = isqrt128(wide);
    const bool inexact = root * root != wide;
    const int exp = (ua.exp - pre) / 2;

    return roundPack(f,
                     {false, exp,
                      static_cast<std::uint64_t>(root) |
                          (inexact ? 1 : 0)},
                     ctx, op);
}

} // namespace mparch::fp

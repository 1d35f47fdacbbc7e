/**
 * @file
 * Fused multiply-add: a * b + c with a single rounding.
 *
 * The exact 2*(manBits+1)-bit product is aligned against the addend
 * on a common LSB scale in 128-bit arithmetic; whichever side falls
 * off the low end collapses into a sticky bit, so the final
 * roundPack sees a correctly-rounded-representable sum.
 */

#include "fp/softfloat.hh"

#include <algorithm>

#include "fp/internal.hh"

namespace mparch::fp {

using detail::U128;
using detail::Unpacked;
using detail::unpackFinite;

namespace {

/** The softfloat fma, stage by stage, for the op @p ctx entered. */
std::uint64_t
fmaBody(Format f, std::uint64_t a, std::uint64_t b, std::uint64_t c,
        const OpCtx &ctx)
{
    const OpKind op = OpKind::Fma;
    a = detail::touch(ctx, op, Stage::OperandA, f.totalBits, a) &
        f.valueMask();
    b = detail::touch(ctx, op, Stage::OperandB, f.totalBits, b) &
        f.valueMask();
    c = detail::touch(ctx, op, Stage::OperandC, f.totalBits, c) &
        f.valueMask();

    const FpClass ca = classify(f, a);
    const FpClass cb = classify(f, b);
    const FpClass cc = classify(f, c);
    if (ca == FpClass::NaN || cb == FpClass::NaN || cc == FpClass::NaN)
        return quietNaN(f);

    const bool prod_sign = signOf(f, a) != signOf(f, b);
    if (ca == FpClass::Inf || cb == FpClass::Inf) {
        if (ca == FpClass::Zero || cb == FpClass::Zero)
            return quietNaN(f);
        if (cc == FpClass::Inf && signOf(f, c) != prod_sign)
            return quietNaN(f);
        return infinity(f, prod_sign);
    }
    if (cc == FpClass::Inf)
        return c;

    const Unpacked ua = unpackFinite(f, a);
    const Unpacked ub = unpackFinite(f, b);
    const Unpacked uc = unpackFinite(f, c);

    U128 prod = static_cast<U128>(ua.sig) * ub.sig;
    int prod_exp = ua.exp + ub.exp;

    std::uint64_t lo = static_cast<std::uint64_t>(prod);
    std::uint64_t hi = static_cast<std::uint64_t>(prod >> 64);
    lo = detail::touch(ctx, op, Stage::ProductLo, 64, lo);
    hi = detail::touch(ctx, op, Stage::ProductHi,
                       detail::productHiWidth(f), hi);
    prod = (static_cast<U128>(hi) << 64) | lo;

    if (prod == 0) {
        if (uc.sig == 0)
            return zero(f, prod_sign && uc.sign);
        return roundPack(f, {uc.sign, uc.exp - 3, uc.sig << 3}, ctx, op);
    }
    if (uc.sig == 0) {
        int exp = prod_exp;
        std::uint64_t sig;
        if (prod >> 64) {
            const int top =
                highestSetBit(static_cast<std::uint64_t>(prod >> 64)) + 64;
            const int shift = top - 62;
            prod = shiftRightSticky128(prod, shift);
            exp += shift;
        }
        sig = static_cast<std::uint64_t>(prod);
        return roundPack(f, {prod_sign, exp, sig}, ctx, op);
    }

    // Common LSB scale. Normally the product's scale; when the addend
    // towers over the product, raise the scale so the addend keeps 60
    // guard bits and the product folds into them (or into sticky).
    // When the addend sits just below the product scale, lower the
    // scale to the addend's so a near-total cancellation stays exact
    // (the product has at most manBits+2 leading bits beyond 64 in
    // that regime, so a <=20-bit left shift cannot overflow 128).
    int scale = prod_exp;
    const int rel = uc.exp - prod_exp;
    if (rel > 60)
        scale = uc.exp - 60;
    else if (rel < 0 && rel >= -20)
        scale = uc.exp;

    // Sticky discipline for a right-shifted (jammed) addend. Two
    // invariants must hold before add/subtract, mirroring addCore:
    // (1) the minuend needs >= 3 zero guard bits under it, so that a
    // subtraction against the jammed-odd addend leaves an odd result
    // whose bit 0 still signals inexactness (otherwise "529 - tiny"
    // computes as exactly 528 and misrounds a would-be tie); (2) the
    // aligned product's MSB must clear roundPack's normalisation
    // point, or a later left shift would promote the sticky into a
    // value/round position (possible with subnormal operands). Both
    // are fixed by lowering the common scale — an exact left shift
    // of the product, with ample 128-bit headroom.
    if (uc.exp < scale) {
        const int prod_msb =
            prod >> 64
                ? highestSetBit(
                      static_cast<std::uint64_t>(prod >> 64)) + 64
                : highestSetBit(static_cast<std::uint64_t>(prod));
        const int norm_pos = static_cast<int>(f.manBits) + 3;
        const int aligned_msb = prod_msb + (prod_exp - scale);
        const int lower = std::max(3, norm_pos + 2 - aligned_msb);
        if (aligned_msb + lower <= 120)
            scale -= lower;
    }

    const U128 prod_s = scale >= prod_exp
        ? shiftRightSticky128(prod, scale - prod_exp)
        : prod << (prod_exp - scale);
    U128 c_s;
    if (uc.exp >= scale) {
        c_s = static_cast<U128>(uc.sig) << (uc.exp - scale);
    } else {
        c_s = shiftRightSticky128(static_cast<U128>(uc.sig),
                                  scale - uc.exp);
    }
    c_s = (c_s & ~U128{0xffffffffffffffffULL}) |
          detail::touch(ctx, op, Stage::AlignedSigA, 64,
                        static_cast<std::uint64_t>(c_s));

    bool sign;
    U128 sum;
    if (prod_sign == uc.sign) {
        sign = prod_sign;
        sum = prod_s + c_s;
    } else if (prod_s >= c_s) {
        sign = prod_sign;
        sum = prod_s - c_s;
    } else {
        sign = uc.sign;
        sum = c_s - prod_s;
    }
    if (sum == 0)
        return zero(f, false);

    int exp = scale;
    if (sum >> 64) {
        const int top =
            highestSetBit(static_cast<std::uint64_t>(sum >> 64)) + 64;
        const int shift = top - 62;
        sum = shiftRightSticky128(sum, shift);
        exp += shift;
    }
    return roundPack(f, {sign, exp, static_cast<std::uint64_t>(sum)},
                     ctx, op);
}

} // namespace

std::uint64_t
fpFma(Format f, std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    const OpKind op = OpKind::Fma;
    const OpCtx ctx = detail::enterOp(op);
    if (ctx.host && detail::hostAdmits(op, f)) {
        // Single and double never decline. Returning their result
        // unchecked keeps the check off their path, which is worth
        // about 6% of a lavamd double execution.
        if (f == kSingle || f == kDouble)
            return detail::hostFma(f, a, b, c);
        const std::uint64_t r = detail::hostFma(f, a, b, c);
        if (r != detail::kHostDeclined)
            return r;
    }
    if (ctx.hooked) {
        if (const auto r = detail::hostStruck(f, ctx, op, a, b, c))
            return *r;
    }
    return fmaBody(f, a, b, c, ctx);
}

std::uint64_t
detail::fmaUnhooked(Format f, std::uint64_t a, std::uint64_t b,
                    std::uint64_t c)
{
    return fmaBody(f, a, b, c, OpCtx{});
}

} // namespace mparch::fp

/**
 * @file
 * Oracle 2: exact integer reference arithmetic.
 *
 * Every finite operand is decoded to an exact integer significand and
 * a power-of-two scale; the operation is carried out *exactly* in
 * 128-bit (FMA: 256-bit) integer arithmetic; and the result is
 * rounded once by roundExactRNE, which compares the dropped bits
 * against the exact halfway point. No guard/round/sticky jamming,
 * no incremental normalisation — the two places where the production
 * implementation could plausibly hide a double-rounding or
 * sticky-promotion bug.
 *
 * Where an operand falls so far below the other that an exact 256-bit
 * alignment will not hold it, it is provably below a quarter of the
 * final rounding granule and collapses into the rounder's sub-LSB
 * remainder flag — an *exact* transformation (the remainder can shift
 * a would-be tie but can never cross a halfway point).
 *
 * exp is transcendental, so no finite integer oracle exists; for it
 * the reference re-derives the documented algorithm
 * (Cody-Waite reduction + in-format Horner chain, softfloat.hh) on
 * top of the reference primitives above. That pins both the
 * primitives the chains execute and the algorithm spec itself.
 */

#include "verify/internal.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace mparch::verify {

using detail::Dec;
using detail::U128;
using detail::decodeBits;
using detail::highestSetBit128;
using detail::roundExactRNE;

using fp::FpClass;
using fp::Format;
using fp::classify;
using fp::infinity;
using fp::isInf;
using fp::isNaN;
using fp::isZero;
using fp::kDouble;
using fp::kHalf;
using fp::kSingle;
using fp::packFields;
using fp::quietNaN;
using fp::signOf;
using fp::zero;

namespace detail {

int
highestSetBit128(U128 v)
{
    const auto hi = static_cast<std::uint64_t>(v >> 64);
    if (hi)
        return 64 + highestSetBit(hi);
    return highestSetBit(static_cast<std::uint64_t>(v));
}

Dec
decodeBits(Format f, std::uint64_t bits)
{
    const bool sign = signOf(f, bits);
    const int be = biasedExpOf(f, bits);
    const std::uint64_t m = mantissaOf(f, bits);
    if (be == 0)
        return {sign, f.minExp() - static_cast<int>(f.manBits), m};
    return {sign, be - f.bias() - static_cast<int>(f.manBits),
            m | f.hiddenBit()};
}

std::uint64_t
roundExactRNE(Format f, bool sign, U128 mag, int exp, bool rest)
{
    const int man = static_cast<int>(f.manBits);
    const int min_lsb = f.minExp() - man;  // scale of subnormal LSBs

    if (mag == 0) {
        MPARCH_ASSERT(!rest, "sub-LSB remainder with zero significand");
        return zero(f, sign);
    }

    const int msb = highestSetBit128(mag);
    int lsb = exp + msb - man;  // keep manBits+1 significant bits
    if (lsb < min_lsb)
        lsb = min_lsb;
    const int shift = lsb - exp;

    std::uint64_t kept;
    if (shift <= 0) {
        // Exact fit (including exact widening); nothing is dropped,
        // so a sub-LSB remainder would change the result — callers
        // scale to prevent this.
        MPARCH_ASSERT(!rest, "sub-LSB remainder but no dropped bits");
        kept = static_cast<std::uint64_t>(mag << -shift);
    } else if (shift > msb + 1) {
        // Everything, including the leading bit, sits strictly below
        // half of the smallest granule: rounds to zero.
        return zero(f, sign);
    } else {
        MPARCH_ASSERT(!rest || shift >= 1, "unreachable");
        U128 kept128, dropped;
        if (shift >= 128) {
            kept128 = 0;
            dropped = mag;
        } else {
            kept128 = mag >> shift;
            dropped = mag & ((U128{1} << shift) - 1);
        }
        const U128 half = U128{1} << (shift - 1);
        kept = static_cast<std::uint64_t>(kept128);
        // dropped + r vs half: r in [0,1) only matters on the exact
        // halfway point, where r > 0 forces the round up.
        if (dropped > half ||
            (dropped == half && (rest || (kept & 1))))
            ++kept;
    }

    if (kept == 0)
        return zero(f, sign);
    if (kept == (f.hiddenBit() << 1)) {
        // Carry out of the significand: exact power of two one binade up.
        kept >>= 1;
        lsb += 1;
    }
    const int kmsb = highestSetBit(kept);
    MPARCH_ASSERT(kmsb <= man, "rounded significand too wide");
    if (kmsb < man) {
        MPARCH_ASSERT(lsb == min_lsb, "unnormalised non-subnormal");
        return packFields(f, sign, 0, kept);
    }
    const int biased = lsb + man + f.bias();
    MPARCH_ASSERT(biased >= 1, "normal below subnormal range");
    if (biased >= f.maxBiasedExp())
        return infinity(f, sign);
    return packFields(f, sign, biased, kept & f.manMask());
}

} // namespace detail

namespace {

// ------------------------------------------------------------- U256
// Just enough 256-bit arithmetic to keep an FMA exact until its one
// rounding: the widest intermediate is a 108-bit product shifted left
// by up to 140 positions (248 bits).

struct U256
{
    U128 hi = 0;
    U128 lo = 0;
};

U256
shl256(U128 v, int n)
{
    if (n == 0)
        return {0, v};
    if (n < 128)
        return {v >> (128 - n), v << n};
    return {v << (n - 128), 0};
}

U256
add256(U256 a, U256 b)
{
    U256 r;
    r.lo = a.lo + b.lo;
    r.hi = a.hi + b.hi + (r.lo < a.lo ? 1 : 0);
    return r;
}

/** a - b; @pre a >= b. */
U256
sub256(U256 a, U256 b)
{
    U256 r;
    r.lo = a.lo - b.lo;
    r.hi = a.hi - b.hi - (a.lo < b.lo ? 1 : 0);
    return r;
}

int
cmp256(U256 a, U256 b)
{
    if (a.hi != b.hi)
        return a.hi < b.hi ? -1 : 1;
    if (a.lo != b.lo)
        return a.lo < b.lo ? -1 : 1;
    return 0;
}

/**
 * Reduce a 256-bit magnitude at scale @p exp to (mag, exp', rest) for
 * roundExactRNE, keeping ~120 significant bits so the rounder always
 * drops at least 7 bits ahead of any format's significand.
 */
std::uint64_t
roundU256(Format f, bool sign, U256 v, int exp, bool rest)
{
    if (v.hi == 0)
        return roundExactRNE(f, sign, v.lo, exp, rest);
    const int top = 128 + highestSetBit128(v.hi);
    const int k = top - 119;  // > 0 since top >= 128
    const U128 dropped_lo =
        k >= 128 ? v.lo : v.lo & ((U128{1} << k) - 1);
    const U128 mag = k >= 128
                         ? v.hi >> (k - 128)
                         : (v.hi << (128 - k)) | (v.lo >> k);
    // The shifted-out bits are a remainder < 1 at the new LSB scale;
    // fold them into rest (exact: the rounder keeps >= 60 spare bits
    // below any format's rounding position).
    const bool lost = k >= 128 ? (v.lo != 0 || (v.hi & ((U128{1} << (k - 128)) - 1)) != 0)
                               : dropped_lo != 0;
    return roundExactRNE(f, sign, mag, exp + k, lost || rest);
}

// --------------------------------------------------------- reference ops

/**
 * Exact a + b (or a - b). Alignment distances that exceed the exact
 * 128-bit window collapse the small operand into the sub-LSB
 * remainder: with lsb-scale gap >= 73, the small operand is below
 * 2^-17 of the big operand's (pre-scaled) LSB.
 */
std::uint64_t
refAdd(Format f, std::uint64_t a, std::uint64_t b, bool subtract)
{
    if (subtract)
        b ^= 1ULL << f.signPos();

    const FpClass ca = classify(f, a);
    const FpClass cb = classify(f, b);
    if (ca == FpClass::NaN || cb == FpClass::NaN)
        return quietNaN(f);
    if (ca == FpClass::Inf && cb == FpClass::Inf)
        return signOf(f, a) == signOf(f, b) ? a : quietNaN(f);
    if (ca == FpClass::Inf)
        return a;
    if (cb == FpClass::Inf)
        return b;

    Dec da = decodeBits(f, a);
    Dec db = decodeBits(f, b);
    if (da.mag == 0 && db.mag == 0) {
        // IEEE sum-of-zeros sign rules (RNE: mixed signs give +0).
        return da.sign == db.sign ? zero(f, da.sign) : zero(f, false);
    }
    if (da.mag == 0)
        return roundExactRNE(f, db.sign, db.mag, db.exp, false);
    if (db.mag == 0)
        return roundExactRNE(f, da.sign, da.mag, da.exp, false);

    // Within one format the LSB scale orders with the magnitude
    // (normals carry a fixed-position leading bit; subnormals share
    // the minimum scale), so da.exp >= db.exp means |a| >= |b| except
    // possibly at equal scales, where the significands decide.
    if (db.exp > da.exp ||
        (db.exp == da.exp && db.mag > da.mag))
        std::swap(da, db);

    const int diff = da.exp - db.exp;
    if (diff <= 72) {
        const U128 big = static_cast<U128>(da.mag) << diff;
        const U128 small = db.mag;
        if (da.sign == db.sign)
            return roundExactRNE(f, da.sign, big + small, db.exp,
                                 false);
        if (big == small)
            return zero(f, false);  // exact cancellation: +0 under RNE
        return roundExactRNE(f, da.sign, big - small, db.exp, false);
    }

    // The small operand is strictly below a quarter of the big
    // operand's pre-scaled LSB: fold it into the remainder.
    const U128 m4 = static_cast<U128>(da.mag) << 2;
    if (da.sign == db.sign)
        return roundExactRNE(f, da.sign, m4, da.exp - 2, true);
    return roundExactRNE(f, da.sign, m4 - 1, da.exp - 2, true);
}

std::uint64_t
refMul(Format f, std::uint64_t a, std::uint64_t b)
{
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
    const Dec da = decodeBits(f, a);
    const Dec db = decodeBits(f, b);
    if (da.mag == 0 || db.mag == 0)
        return zero(f, sign);
    // The product of two <= 54-bit significands is exact in 128 bits.
    return roundExactRNE(f, sign,
                         static_cast<U128>(da.mag) * db.mag,
                         da.exp + db.exp, false);
}

std::uint64_t
refDiv(Format f, std::uint64_t a, std::uint64_t b)
{
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

    const Dec da = decodeBits(f, a);
    const Dec db = decodeBits(f, b);
    // Scale the dividend so the quotient lands on ~60 significant
    // bits regardless of either operand's normalisation; the division
    // remainder is the exact sub-LSB rest.
    const int k = 60 + highestSetBit(db.mag) - highestSetBit(da.mag);
    const U128 num = static_cast<U128>(da.mag) << k;
    const U128 q = num / db.mag;
    const U128 r = num % db.mag;
    return roundExactRNE(f, sign, q, da.exp - db.exp - k, r != 0);
}

/** Bitwise restoring integer square root (exact floor). */
U128
isqrt(U128 value)
{
    U128 root = 0;
    U128 bit = U128{1} << 126;
    while (bit > value)
        bit >>= 2;
    while (bit != 0) {
        const U128 probe = root + bit;
        root >>= 1;
        if (value >= probe) {
            value -= probe;
            root += bit;
        }
        bit >>= 2;
    }
    return root;
}

std::uint64_t
refSqrt(Format f, std::uint64_t a)
{
    const FpClass ca = classify(f, a);
    if (ca == FpClass::NaN)
        return quietNaN(f);
    if (ca == FpClass::Zero)
        return a;  // sqrt(+/-0) = +/-0
    if (signOf(f, a))
        return quietNaN(f);
    if (ca == FpClass::Inf)
        return a;

    const Dec da = decodeBits(f, a);
    // Widen to an even scale so sqrt(2^exp) is exact and the integer
    // root carries ~59 significant bits.
    int t = 118 - highestSetBit(da.mag);
    if ((da.exp - t) & 1)
        ++t;
    const U128 wide = static_cast<U128>(da.mag) << t;
    const U128 root = isqrt(wide);
    const bool inexact = root * root != wide;
    return roundExactRNE(f, false, root, (da.exp - t) / 2, inexact);
}

std::uint64_t
refFma(Format f, std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    const FpClass ca = classify(f, a);
    const FpClass cb = classify(f, b);
    const FpClass cc = classify(f, c);
    if (ca == FpClass::NaN || cb == FpClass::NaN || cc == FpClass::NaN)
        return quietNaN(f);
    const bool ps = signOf(f, a) != signOf(f, b);
    if (ca == FpClass::Inf || cb == FpClass::Inf) {
        if (ca == FpClass::Zero || cb == FpClass::Zero)
            return quietNaN(f);
        if (cc == FpClass::Inf && signOf(f, c) != ps)
            return quietNaN(f);
        return infinity(f, ps);
    }
    if (cc == FpClass::Inf)
        return c;

    const Dec da = decodeBits(f, a);
    const Dec db = decodeBits(f, b);
    const Dec dc = decodeBits(f, c);
    const U128 prod = static_cast<U128>(da.mag) * db.mag;  // exact
    const int pe = da.exp + db.exp;
    const bool cs = dc.sign;

    if (prod == 0) {
        if (dc.mag == 0)
            return ps == cs ? zero(f, ps) : zero(f, false);
        return roundExactRNE(f, cs, dc.mag, dc.exp, false);
    }
    if (dc.mag == 0)
        return roundExactRNE(f, ps, prod, pe, false);

    const int d = pe - dc.exp;
    U256 x, y;  // x carries the product's sign, y the addend's
    int scale;
    if (d >= 0) {
        if (d > 140) {
            // Addend below a quarter of the product's pre-scaled LSB.
            const U128 p4 = prod << 2;
            if (ps == cs)
                return roundExactRNE(f, ps, p4, pe - 2, true);
            return roundExactRNE(f, ps, p4 - 1, pe - 2, true);
        }
        x = shl256(prod, d);
        y = {0, dc.mag};
        scale = dc.exp;
    } else {
        if (-d > 140) {
            // Product below a quarter of the addend's pre-scaled LSB.
            const U128 c4 = static_cast<U128>(dc.mag) << 2;
            if (ps == cs)
                return roundExactRNE(f, cs, c4, dc.exp - 2, true);
            return roundExactRNE(f, cs, c4 - 1, dc.exp - 2, true);
        }
        x = {0, prod};
        y = shl256(static_cast<U128>(dc.mag), -d);
        scale = pe;
    }

    if (ps == cs)
        return roundU256(f, ps, add256(x, y), scale, false);
    const int cmp = cmp256(x, y);
    if (cmp == 0)
        return zero(f, false);  // exact cancellation: +0 under RNE
    if (cmp > 0)
        return roundU256(f, ps, sub256(x, y), scale, false);
    return roundU256(f, cs, sub256(y, x), scale, false);
}

std::uint64_t
refConvert(Format dst, Format src, std::uint64_t a)
{
    const FpClass ca = classify(src, a);
    const bool sign = signOf(src, a);
    if (ca == FpClass::NaN)
        return quietNaN(dst);
    if (ca == FpClass::Inf)
        return infinity(dst, sign);
    if (ca == FpClass::Zero)
        return zero(dst, sign);
    const Dec da = decodeBits(src, a);
    return roundExactRNE(dst, sign, da.mag, da.exp, false);
}

// ------------------------------------------------- transcendental mirror
//
// Reference re-derivation of the fpExp algorithm spec
// (softfloat.hh) on top of the reference primitives. Constants,
// degrees, range checks and operation order mirror the documented
// algorithm; the arithmetic underneath is the exact oracle's. A
// mismatch therefore indicts either a primitive the chain executes or
// a drift between src/fp/transcendental.cc and its spec.

std::uint64_t
refFromDouble(Format f, double v)
{
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (f == kDouble)
        return bits;
    return refConvert(f, kDouble, bits);
}

double
refToDouble(Format f, std::uint64_t a)
{
    if (f == kDouble)
        return std::bit_cast<double>(a);
    return std::bit_cast<double>(refConvert(kDouble, f, a));
}

int
refExpDegree(Format f)
{
    if (f == kHalf)
        return 4;
    if (f == kSingle)
        return 6;
    return 13;
}

std::uint64_t
refScaleByPow2(Format f, std::uint64_t x, long k)
{
    while (k != 0) {
        long step = std::clamp<long>(k, f.minExp(), f.maxExp());
        const std::uint64_t factor = packFields(
            f, false, static_cast<int>(step) + f.bias(), 0);
        x = refMul(f, x, factor);
        k -= step;
        if (isZero(f, x) || isInf(f, x) || isNaN(f, x))
            break;
    }
    return x;
}

std::uint64_t
refExp(Format f, std::uint64_t a)
{
    const FpClass ca = classify(f, a);
    if (ca == FpClass::NaN)
        return quietNaN(f);
    if (ca == FpClass::Inf)
        return signOf(f, a) ? zero(f, false) : a;
    if (ca == FpClass::Zero)
        return fp::one(f);

    const double xd = refToDouble(f, a);
    if (xd > (f.maxExp() + 1) * std::log(2.0))
        return infinity(f, false);
    if (xd < (f.minExp() - static_cast<int>(f.manBits) - 1) *
                 std::log(2.0))
        return zero(f, false);

    const std::uint64_t log2e = refFromDouble(f, 1.4426950408889634);
    const std::uint64_t neg_ln2_hi =
        refFromDouble(f, -0x1.62e42fefa38p-1);
    const std::uint64_t neg_ln2_lo =
        refFromDouble(f, -0x1.ef35793c7673p-45);

    const std::uint64_t t = refMul(f, a, log2e);
    const double td = refToDouble(f, t);
    const double k_limit = 2.0 * (f.maxExp() + f.manBits + 2);
    const long k = std::isfinite(td)
                       ? std::lround(std::clamp(td, -k_limit, k_limit))
                       : 0;
    const std::uint64_t kf =
        refFromDouble(f, static_cast<double>(k));

    std::uint64_t r = refFma(f, kf, neg_ln2_hi, a);
    r = refFma(f, kf, neg_ln2_lo, r);

    const int deg = refExpDegree(f);
    double inv_fact = 1.0;
    std::vector<std::uint64_t> coeff(static_cast<std::size_t>(deg) + 1);
    for (int i = 0; i <= deg; ++i) {
        if (i > 1)
            inv_fact /= i;
        coeff[static_cast<std::size_t>(i)] = refFromDouble(f, inv_fact);
    }
    std::uint64_t p = coeff[static_cast<std::size_t>(deg)];
    for (int i = deg - 1; i >= 0; --i)
        p = refFma(f, p, r, coeff[static_cast<std::size_t>(i)]);

    return refScaleByPow2(f, p, k);
}

} // namespace

OracleResult
exactOracle(const Case &c)
{
    switch (c.op) {
      case VOp::Add:
        return {true, refAdd(c.fmt, c.a, c.b, false)};
      case VOp::Sub:
        return {true, refAdd(c.fmt, c.a, c.b, true)};
      case VOp::Mul:
        return {true, refMul(c.fmt, c.a, c.b)};
      case VOp::Div:
        return {true, refDiv(c.fmt, c.a, c.b)};
      case VOp::Fma:
        return {true, refFma(c.fmt, c.a, c.b, c.c)};
      case VOp::Sqrt:
        return {true, refSqrt(c.fmt, c.a)};
      case VOp::Exp:
        return {true, refExp(c.fmt, c.a)};
      case VOp::Convert:
        return {true, refConvert(c.dst, c.fmt, c.a)};
      case VOp::NumOps:
        break;
    }
    return {};
}

} // namespace mparch::verify

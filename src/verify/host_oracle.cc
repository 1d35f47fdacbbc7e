/**
 * @file
 * Oracle 1: the host FPU.
 *
 * The host computes in hardware binary32/binary64 (and, where the
 * compiler provides it, _Float16). That is only a valid oracle where
 * the host result is *provably* the correctly rounded target-format
 * result. The governing analysis is Figueroa's double-rounding
 * theorem: carrying out an operation on p-bit operands in a P-bit
 * format and then rounding to p bits equals the directly rounded
 * result whenever
 *
 *     P >= 2p + 2   for division, square root, and conversions
 *                   of arbitrary reals,
 *     P >= 2p + 1   for addition/subtraction,
 *     P >= 2p       for multiplication.
 *
 * What that admits here:
 *
 *  - binary64: native hardware arithmetic, std::sqrt, std::fma
 *    (glibc's fma is correctly rounded with or without hardware FMA).
 *  - binary32: native float arithmetic, sqrtf, std::fmaf.
 *  - binary16 (p = 11): GCC's x86 _Float16 evaluates each operation
 *    in float and rounds back — float's P = 24 meets 2p+2 = 24
 *    exactly, so +,-,*,/ are all correctly rounded. sqrt goes through
 *    double (53 >= 24). fma is NOT admitted: the exact a*b+c would
 *    need the sum of a 22-bit product and an 11-bit addend rounded
 *    once, and no native path provides that without a double-rounding
 *    hazard — the exact oracle covers it.
 *  - bfloat16 (p = 8): compute in float (24 >= 2p+2 = 18 for every
 *    basic op), then narrow with one explicit round-to-nearest-even.
 *    fma is again not admitted (exact product has 16 bits; 24 < 2*16+1).
 *  - conversions: widenings are exact; narrowings must be a *single*
 *    rounding from the source value (native casts are — libgcc's
 *    __truncdfhf2 narrows double to half in one step). Chained
 *    narrowings are NOT admitted even when P >= 2p+2: that margin
 *    protects arithmetic on p-bit operands, but a conversion source
 *    can sit one source-ULP above a target tie and collapse onto it
 *    in the intermediate format (see hostConvert for the concrete
 *    double -> bfloat16 counterexample the corpus pinned).
 *  - exp: never supported — the production algorithm is not
 *    correctly rounded, so no bit-exact host expectation exists (the
 *    property oracle bounds it in ULPs instead).
 *  - tf32: never supported (no native type; the exact oracle covers it).
 *
 * NaN results are canonicalised to the format's quiet NaN before
 * comparison, matching the production core's (and the paper
 * hardware's) canonical-qNaN convention.
 */

#include "verify/verify.hh"

#include <bit>
#include <cmath>

#if defined(__FLT16_MANT_DIG__) && __FLT16_MANT_DIG__ == 11
#define MPARCH_VERIFY_HAVE_FLOAT16 1
#else
#define MPARCH_VERIFY_HAVE_FLOAT16 0
#endif

namespace mparch::verify {

using fp::Format;
using fp::isNaN;
using fp::kBfloat16;
using fp::kDouble;
using fp::kHalf;
using fp::kSingle;
using fp::quietNaN;

namespace {

double
decodeDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

float
decodeSingle(std::uint64_t bits)
{
    return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
}

float
decodeBfloat16(std::uint64_t bits)
{
    // bfloat16 is exactly the top 16 bits of a binary32 pattern.
    return std::bit_cast<float>(static_cast<std::uint32_t>(bits) << 16);
}

std::uint64_t
encodeDouble(double v)
{
    const auto bits = std::bit_cast<std::uint64_t>(v);
    return isNaN(kDouble, bits) ? quietNaN(kDouble) : bits;
}

std::uint64_t
encodeSingle(float v)
{
    const std::uint64_t bits = std::bit_cast<std::uint32_t>(v);
    return isNaN(kSingle, bits) ? quietNaN(kSingle) : bits;
}

/** One explicit float -> bfloat16 round-to-nearest-even narrowing. */
std::uint64_t
encodeBfloat16(float v)
{
    const auto u = std::bit_cast<std::uint32_t>(v);
    if (std::isnan(v))
        return quietNaN(kBfloat16);
    // Round-half-to-even on the 16 dropped bits: adding 0x7fff plus
    // the current LSB of the kept part implements ties-to-even; the
    // carry, if any, correctly bumps the exponent (and saturates a
    // maximal finite into infinity).
    const std::uint32_t r = u + 0x7fff + ((u >> 16) & 1);
    return r >> 16;
}

#if MPARCH_VERIFY_HAVE_FLOAT16
_Float16
decodeHalf(std::uint64_t bits)
{
    return std::bit_cast<_Float16>(static_cast<std::uint16_t>(bits));
}

std::uint64_t
encodeHalf(_Float16 v)
{
    const std::uint64_t bits = std::bit_cast<std::uint16_t>(v);
    return isNaN(kHalf, bits) ? quietNaN(kHalf) : bits;
}
#endif

OracleResult
hostArithDouble(const Case &c)
{
    const double a = decodeDouble(c.a);
    const double b = decodeDouble(c.b);
    const double x = decodeDouble(c.c);
    switch (c.op) {
      case VOp::Add:  return {true, encodeDouble(a + b)};
      case VOp::Sub:  return {true, encodeDouble(a - b)};
      case VOp::Mul:  return {true, encodeDouble(a * b)};
      case VOp::Div:  return {true, encodeDouble(a / b)};
      case VOp::Fma:  return {true, encodeDouble(std::fma(a, b, x))};
      case VOp::Sqrt: return {true, encodeDouble(std::sqrt(a))};
      default:        return {};
    }
}

OracleResult
hostArithSingle(const Case &c)
{
    const float a = decodeSingle(c.a);
    const float b = decodeSingle(c.b);
    const float x = decodeSingle(c.c);
    switch (c.op) {
      case VOp::Add:  return {true, encodeSingle(a + b)};
      case VOp::Sub:  return {true, encodeSingle(a - b)};
      case VOp::Mul:  return {true, encodeSingle(a * b)};
      case VOp::Div:  return {true, encodeSingle(a / b)};
      case VOp::Fma:  return {true, encodeSingle(std::fmaf(a, b, x))};
      case VOp::Sqrt: return {true, encodeSingle(std::sqrt(a))};
      default:        return {};
    }
}

OracleResult
hostArithHalf(const Case &c)
{
#if MPARCH_VERIFY_HAVE_FLOAT16
    const _Float16 a = decodeHalf(c.a);
    const _Float16 b = decodeHalf(c.b);
    switch (c.op) {
      case VOp::Add:  return {true, encodeHalf(a + b)};
      case VOp::Sub:  return {true, encodeHalf(a - b)};
      case VOp::Mul:  return {true, encodeHalf(a * b)};
      case VOp::Div:  return {true, encodeHalf(a / b)};
      case VOp::Sqrt:
        // Correctly rounded to 53 bits, then to 11: 53 >= 2*11+2.
        return {true, encodeHalf(static_cast<_Float16>(
                          std::sqrt(static_cast<double>(a))))};
      default:
        return {};  // fma: double-rounding hazard, exact oracle only
    }
#else
    (void)c;
    return {};
#endif
}

OracleResult
hostArithBfloat16(const Case &c)
{
    const float a = decodeBfloat16(c.a);
    const float b = decodeBfloat16(c.b);
    switch (c.op) {
      case VOp::Add:  return {true, encodeBfloat16(a + b)};
      case VOp::Sub:  return {true, encodeBfloat16(a - b)};
      case VOp::Mul:  return {true, encodeBfloat16(a * b)};
      case VOp::Div:  return {true, encodeBfloat16(a / b)};
      case VOp::Sqrt: return {true, encodeBfloat16(std::sqrt(a))};
      default:
        return {};  // fma: 24-bit float < 2*16+1, exact oracle only
    }
}

OracleResult
hostConvert(const Case &c)
{
    const Format src = c.fmt;
    const Format dst = c.dst;

    // A NaN converts to the destination's canonical quiet NaN no
    // matter the route; handle it up front so payload-preserving
    // native casts can't differ.
    if (isNaN(src, c.a))
        return {true, quietNaN(dst)};

    // Decode the source into a double when that is exact (it is for
    // every supported source format: 53 bits and 11 exponent bits
    // dominate half, single and bfloat16 alike).
    double wide;
    if (src == kDouble)
        wide = decodeDouble(c.a);
    else if (src == kSingle)
        wide = decodeSingle(c.a);
    else if (src == kBfloat16)
        wide = decodeBfloat16(c.a);
#if MPARCH_VERIFY_HAVE_FLOAT16
    else if (src == kHalf)
        wide = static_cast<double>(decodeHalf(c.a));
#endif
    else
        return {};

    if (dst == kDouble)
        return {true, encodeDouble(wide)};
    if (dst == kSingle)
        return {true, encodeSingle(static_cast<float>(wide))};
    if (dst == kBfloat16) {
        // Only when the float intermediate is exact. A double source
        // would double-round: 0x3ff0100000000001 (one ULP above the
        // bfloat16 tie at 1 + 2^-8) first rounds *onto* the tie in
        // float, then ties-to-even drops what direct rounding keeps.
        // The 2p+2 margin protects arithmetic on p-bit operands, not
        // the conversion of an arbitrary 53-bit real.
        if (src == kDouble)
            return {};
        return {true, encodeBfloat16(static_cast<float>(wide))};
    }
#if MPARCH_VERIFY_HAVE_FLOAT16
    if (dst == kHalf)
        return {true, encodeHalf(static_cast<_Float16>(wide))};
#endif
    return {};
}

} // namespace

OracleResult
hostOracle(const Case &c)
{
    switch (c.op) {
      case VOp::Exp:
        return {};  // not correctly rounded; property-oracle territory
      case VOp::Convert:
        return hostConvert(c);
      default:
        break;
    }
    if (c.fmt == kDouble)
        return hostArithDouble(c);
    if (c.fmt == kSingle)
        return hostArithSingle(c);
    if (c.fmt == kHalf)
        return hostArithHalf(c);
    if (c.fmt == kBfloat16)
        return hostArithBfloat16(c);
    return {};
}

} // namespace mparch::verify

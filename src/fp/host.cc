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
 * formats run in float with exact bit-level widening and one integer
 * round-to-nearest-even narrowing; NaN results are canonicalised to
 * quietNaN(f), as the softfloat core returns them.
 *
 * Built with -ffp-contract=off (all of mparch_fp) so no a*b+c here is
 * ever fused, and with -fno-math-errno so std::sqrt is the bare
 * instruction. Native fma/sqrt belong in this file only (the
 * host-math lint rule).
 */

#include "fp/internal.hh"

#include <bit>
#include <cmath>

namespace mparch::fp::detail {

namespace {

double
decodeDouble(std::uint64_t a)
{
    return std::bit_cast<double>(a);
}

float
decodeSingle(std::uint64_t a)
{
    return std::bit_cast<float>(static_cast<std::uint32_t>(a));
}

std::uint64_t
encodeDouble(double v)
{
    return std::isnan(v) ? quietNaN(kDouble)
                         : std::bit_cast<std::uint64_t>(v);
}

std::uint64_t
encodeSingle(float v)
{
    return std::isnan(v) ? quietNaN(kSingle)
                         : std::bit_cast<std::uint32_t>(v);
}

/** binary16 bits -> the same value as a float (exact). */
float
widenHalf(std::uint64_t h)
{
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u)
                               << 16;
    const auto exp = static_cast<std::uint32_t>(h >> 10) & 0x1fu;
    auto man = static_cast<std::uint32_t>(h) & 0x3ffu;
    std::uint32_t bits;
    if (exp == 0x1f) {
        bits = sign | 0x7f800000u | (man << 13);  // inf, NaN
    } else if (exp != 0) {
        bits = sign | ((exp + 112) << 23) | (man << 13);
    } else if (man == 0) {
        bits = sign;
    } else {
        // Subnormal man * 2^-24: move the leading one to the hidden
        // bit position (bit 10) and lower the exponent to match.
        const auto shift =
            static_cast<std::uint32_t>(std::countl_zero(man) - 21);
        man <<= shift;
        bits = sign | ((113 - shift) << 23) | ((man & 0x3ffu) << 13);
    }
    return std::bit_cast<float>(bits);
}

/** One round-to-nearest-even narrowing of a float to binary16. */
std::uint64_t
narrowHalf(float v)
{
    const auto u = std::bit_cast<std::uint32_t>(v);
    const std::uint32_t sign = (u >> 16) & 0x8000u;
    const std::uint32_t mag = u & 0x7fffffffu;
    if (mag > 0x7f800000u)
        return quietNaN(kHalf);
    if (mag >= 0x477ff000u)  // 65520 = max + ulp/2 and above: inf
        return sign | 0x7c00u;
    if (mag >= 0x38800000u) {
        // Normal: rebias the exponent (127 -> 15), then round the
        // 13 dropped bits half-to-even; a carry bumps the exponent.
        const std::uint32_t r = mag - 0x38000000u;
        return sign | ((r + 0xfffu + ((r >> 13) & 1u)) >> 13);
    }
    // Subnormal: round the value to a multiple of 2^-24.
    const std::uint32_t e = mag >> 23;
    if (e < 102)  // below 2^-25: rounds to zero
        return sign;
    const std::uint32_t m = (mag & 0x7fffffu) | 0x800000u;
    const std::uint32_t shift = 126 - e;
    const std::uint32_t q = m >> shift;
    const std::uint32_t rem = m & ((1u << shift) - 1u);
    const std::uint32_t half = 1u << (shift - 1);
    return sign | (q + ((rem > half || (rem == half && (q & 1u))) ? 1u
                                                                  : 0u));
}

/** bfloat16 is the top half of a binary32 pattern (exact). */
float
widenBfloat16(std::uint64_t b)
{
    return std::bit_cast<float>(static_cast<std::uint32_t>(b) << 16);
}

/** One round-to-nearest-even narrowing of a float to bfloat16. */
std::uint64_t
narrowBfloat16(float v)
{
    if (std::isnan(v))
        return quietNaN(kBfloat16);
    // Adding 0x7fff plus the kept LSB rounds the 16 dropped bits
    // half-to-even; a carry bumps the exponent (and saturates the
    // largest finite into infinity).
    const auto u = std::bit_cast<std::uint32_t>(v);
    return (u + 0x7fffu + ((u >> 16) & 1u)) >> 16;
}

/** Run @p op natively in @p f (in float for the 16-bit formats). */
template <class Op>
std::uint64_t
hostBinary(Format f, std::uint64_t a, std::uint64_t b, Op op)
{
    if (f == kSingle)
        return encodeSingle(op(decodeSingle(a), decodeSingle(b)));
    if (f == kDouble)
        return encodeDouble(op(decodeDouble(a), decodeDouble(b)));
    if (f == kHalf)
        return narrowHalf(op(widenHalf(a), widenHalf(b)));
    MPARCH_ASSERT(f == kBfloat16, "format not admitted by hostAdmits");
    return narrowBfloat16(op(widenBfloat16(a), widenBfloat16(b)));
}

/** Any admitted source as a float (exact), double excepted. */
float
widenToFloat(Format src, std::uint64_t a)
{
    if (src == kSingle)
        return decodeSingle(a);
    if (src == kHalf)
        return widenHalf(a);
    return widenBfloat16(a);
}

} // namespace

std::uint64_t
hostAdd(Format f, std::uint64_t a, std::uint64_t b)
{
    return hostBinary(f, a, b, [](auto x, auto y) { return x + y; });
}

std::uint64_t
hostMul(Format f, std::uint64_t a, std::uint64_t b)
{
    return hostBinary(f, a, b, [](auto x, auto y) { return x * y; });
}

std::uint64_t
hostDiv(Format f, std::uint64_t a, std::uint64_t b)
{
    return hostBinary(f, a, b, [](auto x, auto y) { return x / y; });
}

std::uint64_t
hostSqrt(Format f, std::uint64_t a)
{
    return hostBinary(f, a, a, [](auto x, auto) { return std::sqrt(x); });
}

std::uint64_t
hostFma(Format f, std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    if (f == kSingle) {
        return encodeSingle(
            std::fma(decodeSingle(a), decodeSingle(b), decodeSingle(c)));
    }
    return encodeDouble(
        std::fma(decodeDouble(a), decodeDouble(b), decodeDouble(c)));
}

std::uint64_t
hostConvert(Format dst, Format src, std::uint64_t a)
{
    if (src == kDouble) {
        const double v = decodeDouble(a);
        return dst == kDouble ? encodeDouble(v)
                              : encodeSingle(static_cast<float>(v));
    }
    const float v = widenToFloat(src, a);
    if (dst == kDouble)
        return encodeDouble(static_cast<double>(v));
    if (dst == kSingle)
        return encodeSingle(v);
    return dst == kHalf ? narrowHalf(v) : narrowBfloat16(v);
}

} // namespace mparch::fp::detail

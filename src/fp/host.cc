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
 * formats widen exactly at the bit level and narrow by one integer
 * round-to-nearest-even step (narrow). Their add, sub, mul, div and
 * sqrt run in float; their fma runs in double, where the product is
 * exact, and keeps the host result only when TwoSum proves the sum
 * exact too: every other fma returns kHostDeclined and runs on
 * softfloat.
 * NaN results are canonicalised to quietNaN(f), as the softfloat core
 * returns them. hostFmaChain is hostFma over the un-struck run of a
 * dot product that fpFmaChain (fma.cc) routes here as a whole.
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

/** bfloat16 is the top half of a binary32 pattern (exact). */
float
widenBfloat16(std::uint64_t b)
{
    return std::bit_cast<float>(static_cast<std::uint32_t>(b) << 16);
}

/** A half or bfloat16 pattern as a float (exact). */
template <Format F>
float
widen16(std::uint64_t a)
{
    static_assert(F == kHalf || F == kBfloat16);
    if constexpr (F == kHalf)
        return widenHalf(a);
    else
        return widenBfloat16(a);
}

/**
 * One round-to-nearest-even narrowing of the binary32 (S = kSingle)
 * or binary64 (S = kDouble) pattern @p u to the 16-bit format F.
 *
 * The normal range rebiases the exponent and rounds the dropped bits
 * half-to-even by one addition (a carry bumps the exponent), behind a
 * single range check; NaN, overflow and subnormal results take the
 * rare branches. Subnormal results round the value to a multiple of
 * F's smallest subnormal the same way.
 */
template <Format F, Format S>
std::uint64_t
narrow(std::uint64_t u)
{
    static_assert(F == kHalf || F == kBfloat16);
    static_assert(S == kSingle || S == kDouble);
    constexpr unsigned kDrop = S.manBits - F.manBits;
    constexpr std::uint64_t kHalfUlp = 1ULL << (kDrop - 1);
    constexpr std::uint64_t kInf = infinity(F, false);
    // mag - kRebias puts F's biased exponent into S's field.
    constexpr std::uint64_t kRebias =
        static_cast<std::uint64_t>(S.bias() - F.bias()) << S.manBits;
    // Normal results lie in [kMinNormal, kOverflow); max + ulp/2 and
    // above round to infinity.
    constexpr std::uint64_t kMinNormal = kRebias + S.hiddenBit();
    constexpr std::uint64_t kOverflow = kRebias + (kInf << kDrop) - kHalfUlp;
    const std::uint64_t sign = (u >> S.signPos()) << F.signPos();
    const std::uint64_t mag = u & (S.valueMask() >> 1);
    if (mag - kMinNormal < kOverflow - kMinNormal) {
        const std::uint64_t r = mag - kRebias;
        return sign | ((r + (kHalfUlp - 1) + ((r >> kDrop) & 1u)) >> kDrop);
    }
    if (mag > infinity(S, false))
        return quietNaN(F);
    if (mag >= kOverflow)
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

/** Run @p op in float on half/bfloat16 operands, narrowing once. */
template <Format F, class Op>
std::uint64_t
binary16(std::uint64_t a, std::uint64_t b, Op op)
{
    return narrow<F, kSingle>(
        std::bit_cast<std::uint32_t>(op(widen16<F>(a), widen16<F>(b))));
}

/**
 * Half/bfloat16 fma in double. The product of two 16-bit operands is
 * exact there (at most 22 significant bits, exponents far inside
 * double's range), so the addition is the only rounding before the
 * narrowing; TwoSum tells whether it rounded.
 */
template <Format F>
std::uint64_t
fma16(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    const double x = widen16<F>(a);
    const double y = widen16<F>(b);
    const double z = widen16<F>(c);
    const double p = x * y;
    const double s = p + z;
    if (std::isfinite(s)) {
        // TwoSum: s + err == p + z exactly. A non-zero err means s is
        // already rounded, and narrowing it would round twice.
        const double zv = s - p;
        const double err = (p - (s - zv)) + (z - zv);
        if (err != 0)
            return kHostDeclined;
    }
    return narrow<F, kDouble>(std::bit_cast<std::uint64_t>(s));
}

/**
 * A single/double chain, accumulating in T. hostFma canonicalises each
 * NaN result, but a NaN accumulator stays NaN through every later fma
 * whatever its payload, so canonicalising once at the end returns the
 * same pattern and keeps the check off the dependency chain.
 */
template <class T, class Decode, class Encode>
std::uint64_t
nativeChain(const std::uint64_t *a, std::size_t sa, const std::uint64_t *b,
            std::size_t sb, std::size_t n, std::uint64_t acc,
            Decode decode, Encode encode)
{
    T r = decode(acc);
    for (std::size_t i = 0; i < n; ++i)
        r = std::fma(decode(a[i * sa]), decode(b[i * sb]), r);
    return encode(r);
}

/** A half/bfloat16 chain: fma16 per element up to its first decline. */
template <Format F>
std::size_t
chain16(const std::uint64_t *a, std::size_t sa, const std::uint64_t *b,
        std::size_t sb, std::size_t n, std::uint64_t &acc)
{
    std::size_t i = 0;
    for (; i < n; ++i) {
        const std::uint64_t r = fma16<F>(a[i * sa], b[i * sb], acc);
        if (r == kHostDeclined)
            break;
        acc = r;
    }
    return i;
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
        return binary16<kHalf>(a, b, op);
    MPARCH_ASSERT(f == kBfloat16, "format not admitted by hostAdmits");
    return binary16<kBfloat16>(a, b, op);
}

/** Any memory-format pattern as a double (exact). */
double
widenToDouble(Format src, std::uint64_t a)
{
    if (src == kDouble)
        return decodeDouble(a);
    if (src == kSingle)
        return decodeSingle(a);
    return src == kHalf ? widenHalf(a) : widenBfloat16(a);
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
    if (f == kDouble) {
        return encodeDouble(
            std::fma(decodeDouble(a), decodeDouble(b), decodeDouble(c)));
    }
    if (f == kHalf)
        return fma16<kHalf>(a, b, c);
    MPARCH_ASSERT(f == kBfloat16, "format not admitted by hostAdmits");
    return fma16<kBfloat16>(a, b, c);
}

std::size_t
hostFmaChain(Format f, const std::uint64_t *a, std::size_t sa,
             const std::uint64_t *b, std::size_t sb, std::size_t n,
             std::uint64_t &acc)
{
    if (n == 0)
        return 0;
    if (f == kSingle) {
        acc = nativeChain<float>(a, sa, b, sb, n, acc, decodeSingle,
                                 encodeSingle);
        return n;
    }
    if (f == kDouble) {
        acc = nativeChain<double>(a, sa, b, sb, n, acc, decodeDouble,
                                  encodeDouble);
        return n;
    }
    if (f == kHalf)
        return chain16<kHalf>(a, sa, b, sb, n, acc);
    MPARCH_ASSERT(f == kBfloat16, "format not admitted by hostAdmits");
    return chain16<kBfloat16>(a, sa, b, sb, n, acc);
}

std::uint64_t
hostConvert(Format dst, Format src, std::uint64_t a)
{
    // Every source widens to double exactly; one rounding narrows.
    const double v = widenToDouble(src, a);
    if (dst == kDouble)
        return encodeDouble(v);
    if (dst == kSingle)
        return encodeSingle(static_cast<float>(v));
    const auto bits = std::bit_cast<std::uint64_t>(v);
    return dst == kHalf ? narrow<kHalf, kDouble>(bits)
                        : narrow<kBfloat16, kDouble>(bits);
}

} // namespace mparch::fp::detail

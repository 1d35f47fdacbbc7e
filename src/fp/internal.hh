/**
 * @file
 * Shared internals of the softfloat implementation files.
 *
 * Not part of the public API; included only by the fp .cc files and white-box
 * tests.
 */

#ifndef MPARCH_FP_INTERNAL_HH
#define MPARCH_FP_INTERNAL_HH

#if defined(__SSE2__)
#include <pmmintrin.h>
#include <xmmintrin.h>
#endif

#include <optional>

#include "fp/format.hh"
#include "fp/host.hh"
#include "fp/softfloat.hh"

namespace mparch::fp::detail {

using U128 = unsigned __int128;

/**
 * A finite operand in LSB-scale form: value = (-1)^sign * sig * 2^exp.
 *
 * Normals carry the hidden bit (sig in [2^manBits, 2^(manBits+1)));
 * subnormals have sig < 2^manBits. Zero has sig == 0.
 */
struct Unpacked
{
    bool sign;
    int exp;            ///< scale of sig's least significant bit
    std::uint64_t sig;  ///< significand including hidden bit
};

/** Unpack a finite (zero/subnormal/normal) bit pattern. */
inline Unpacked
unpackFinite(Format f, std::uint64_t bits)
{
    const bool sign = signOf(f, bits);
    const int be = biasedExpOf(f, bits);
    const std::uint64_t m = mantissaOf(f, bits);
    if (be == 0)
        return {sign, f.minExp() - static_cast<int>(f.manBits), m};
    return {sign, be - f.bias() - static_cast<int>(f.manBits),
            m | f.hiddenBit()};
}

/** The width of the ProductHi stage of @p f: the exact product's bits
 *  above 64, at least 1. */
constexpr unsigned
productHiWidth(Format f)
{
    return 2u * (f.manBits + 1u) > 64u ? 2u * (f.manBits + 1u) - 64u : 1u;
}

/** Normalise an unpacked non-zero value so sig's MSB is at manBits. */
inline Unpacked
normalize(Format f, Unpacked u)
{
    MPARCH_ASSERT(u.sig != 0, "cannot normalise zero");
    const int hb = highestSetBit(u.sig);
    const int shift = static_cast<int>(f.manBits) - hb;
    if (shift > 0) {
        u.sig <<= shift;
        u.exp -= shift;
    } else if (shift < 0) {
        // Only possible for corrupted-width significands.
        u.sig >>= -shift;
        u.exp += -shift;
    }
    return u;
}

/**
 * True when the host FPU rounds to nearest-even with flush-to-zero
 * and denormals-are-zero clear: the only host mode in which its
 * results are the IEEE results the softfloat core computes. Read
 * per op, so a caller that changes the host mode mid-run
 * (fesetround, MXCSR) falls back to softfloat at once.
 */
inline bool
hostFpuReady()
{
#if defined(__SSE2__)
    // MXCSR rounding control 00 is round-to-nearest-even.
    constexpr unsigned kIeeeDefault =
        _MM_ROUND_MASK | _MM_FLUSH_ZERO_MASK | _MM_DENORMALS_ZERO_MASK;
    return (_mm_getcsr() & kIeeeDefault) == 0;
#else
    return false;  // no portable FTZ/DAZ query: stay on softfloat
#endif
}

/**
 * The admissibility table of the host-FPU route (host.cc): whether
 * the host computes @p op in format @p f bit-identically to the
 * softfloat core under round-to-nearest-even. It follows the table of
 * src/verify/host_oracle.cc: an op on p-bit operands carried out in a
 * P-bit format and rounded once more to p bits is correctly rounded
 * for P >= 2p + 2 (Figueroa). Single and double run natively
 * (std::fma is correctly rounded); half (p = 11) and bfloat16 (p = 8)
 * run add, sub, mul, div and sqrt in float (P = 24). Their fma runs
 * in double, where the product is exact: hostFma proves the sum
 * exact too (TwoSum error zero), so narrowing it is the one rounding,
 * and hands every other case back to softfloat. tf32 and exp never
 * take the route (exp's inner ops take the gate one by one).
 */
constexpr bool
hostAdmits(OpKind op, Format f)
{
    switch (op) {
      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::Div:
      case OpKind::Sqrt:
      case OpKind::Fma:
        return f == kSingle || f == kDouble || f == kHalf ||
               f == kBfloat16;
      default:
        return false;
    }
}

/**
 * Whether the host converts @p src to @p dst bit-identically: every
 * memory format widens to double exactly, and each narrowing is one
 * rounding of that double (a host cast to single, one integer
 * narrowing to half/bfloat16).
 */
constexpr bool
hostAdmitsConvert(Format dst, Format src)
{
    const auto memory = [](Format f) {
        return f == kHalf || f == kSingle || f == kDouble ||
               f == kBfloat16;
    };
    return memory(dst) && memory(src);
}

/**
 * The host-FPU route of the softfloat ops (host.cc), for an op whose
 * OpCtx::host is set and whose format hostAdmits(): the round-to-
 * nearest-even result, with NaNs canonicalised to quietNaN(f), from
 * the per-format ops of fp/host.hh. Subtraction is hostAdd of the
 * negated operand, as in the softfloat core. hostFma may return
 * kHostDeclined (half/bfloat16 only).
 */
std::uint64_t hostAdd(Format f, std::uint64_t a, std::uint64_t b);
std::uint64_t hostMul(Format f, std::uint64_t a, std::uint64_t b);
std::uint64_t hostDiv(Format f, std::uint64_t a, std::uint64_t b);
std::uint64_t hostSqrt(Format f, std::uint64_t a);
std::uint64_t hostFma(Format f, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c);
std::uint64_t hostConvert(Format dst, Format src, std::uint64_t a);

/**
 * The host route of a struck add, sub, mul, div or fma (host.cc): the
 * result of the softfloat body of @p op for the op @p ctx entered,
 * with the same hits counted on its trigger (the hook is not called),
 * or nullopt when the caller must run that body. It answers when the
 * op's trigger is armed (FpContext::strike), the host FPU is in its
 * IEEE default mode, @p f is single or double, and the trigger's
 * stage is one the host can stand in for: an operand (the trigger's
 * rule corrupts it, then the host op runs), a finite non-zero result
 * (the one case where the body certainly reaches roundPack's Result
 * touch), or an fma product half of finite operands that a stuck-at
 * rule leaves unchanged. @p c is read by fma only. The fma chain's
 * masked loop (fmaMasked*) applies the same rule, one template in
 * host.cc, to each struck op.
 */
std::optional<std::uint64_t> hostStruck(Format f, const OpCtx &ctx,
                                        OpKind op, std::uint64_t a,
                                        std::uint64_t b,
                                        std::uint64_t c = 0);

} // namespace mparch::fp::detail

#endif // MPARCH_FP_INTERNAL_HH

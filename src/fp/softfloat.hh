/**
 * @file
 * Software IEEE754-2008 arithmetic with injectable datapaths.
 *
 * All operations take bit patterns in the low @c totalBits of a
 * std::uint64_t, round to nearest-even (the only mode the studied
 * hardware uses for these workloads), and report their internal
 * datapath stages to the hook installed in the current FpContext
 * (see hooks.hh).
 *
 * Special values follow IEEE754: NaNs propagate as the canonical
 * quiet NaN, invalid operations (Inf-Inf, 0*Inf, 0/0, Inf/Inf,
 * sqrt of a negative) produce the canonical quiet NaN, overflow
 * produces infinity and underflow flushes gradually through
 * subnormals.
 */

#ifndef MPARCH_FP_SOFTFLOAT_HH
#define MPARCH_FP_SOFTFLOAT_HH

#include <cstdint>
#include <string>

#include "fp/format.hh"
#include "fp/hooks.hh"

namespace mparch::fp {

/** a + b, correctly rounded (RNE). */
std::uint64_t fpAdd(Format f, std::uint64_t a, std::uint64_t b);

/** a - b, correctly rounded (RNE). */
std::uint64_t fpSub(Format f, std::uint64_t a, std::uint64_t b);

/** a * b, correctly rounded (RNE). */
std::uint64_t fpMul(Format f, std::uint64_t a, std::uint64_t b);

/** a * b + c with a single rounding (fused multiply-add). */
std::uint64_t fpFma(Format f, std::uint64_t a, std::uint64_t b,
                    std::uint64_t c);

/** a / b, correctly rounded (RNE). */
std::uint64_t fpDiv(Format f, std::uint64_t a, std::uint64_t b);

/** sqrt(a), correctly rounded (RNE). */
std::uint64_t fpSqrt(Format f, std::uint64_t a);

/**
 * exp(a), evaluated *in-format* by a Horner chain of softfloat FMAs
 * after a two-constant Cody-Waite range reduction.
 *
 * The polynomial degree grows with precision (4 / 6 / 13), mirroring
 * how software transcendental implementations spend more operations
 * for higher-precision targets — the effect behind the paper's
 * LavaMD criticality inversion on the Xeon Phi.
 */
std::uint64_t fpExp(Format f, std::uint64_t a);

/**
 * Natural logarithm, evaluated in-format like fpExp: the argument is
 * reduced to m in [sqrt(1/2), sqrt(2)) times 2^k, and ln(m) comes
 * from the atanh series 2t(1 + t^2/3 + ...), t = (m-1)/(m+1), with
 * a precision-dependent term count.
 */
std::uint64_t fpLog(Format f, std::uint64_t a);

/** -a (sign flip; NaN payload untouched). */
inline std::uint64_t
fpNeg(Format f, std::uint64_t a)
{
    return (a ^ (1ULL << f.signPos())) & f.valueMask();
}

/** |a|. */
std::uint64_t fpAbs(Format f, std::uint64_t a);

/** IEEE equality (NaN != anything, -0 == +0). */
bool fpEqual(Format f, std::uint64_t a, std::uint64_t b);

/** IEEE a < b (false when unordered). */
bool fpLess(Format f, std::uint64_t a, std::uint64_t b);

/** IEEE a <= b (false when unordered). */
bool fpLessEqual(Format f, std::uint64_t a, std::uint64_t b);

/**
 * Convert between formats (instrumented, counts as OpKind::Convert).
 *
 * Widening is exact; narrowing rounds to nearest-even with overflow
 * to infinity and gradual underflow.
 */
std::uint64_t fpConvert(Format dst, Format src, std::uint64_t a);

/**
 * Convert without instrumentation (no op counting, no hooks).
 *
 * Use for I/O with the host: loading inputs, reading outputs and
 * computing golden references must not perturb campaign op counts.
 */
std::uint64_t fpConvertSilent(Format dst, Format src, std::uint64_t a);

/** Encode a host double into format @p f (silent, RNE). */
std::uint64_t fpFromDouble(Format f, double v);

/** Decode format @p f bits into a host double (silent, exact). */
double fpToDouble(Format f, std::uint64_t a);

/**
 * Internal unrounded representation: value = (-1)^sign * sig * 2^exp
 * where @c exp scales the least significant bit of @c sig.
 *
 * Exposed in the public header for white-box unit tests of the
 * rounding path.
 */
struct RawFloat
{
    bool sign = false;
    int exp = 0;            ///< power-of-two scale of sig's LSB
    std::uint64_t sig = 0;  ///< unnormalised significand
};

/**
 * Round a RawFloat into format @p f (RNE) and run the PreRoundSig,
 * ExponentLogic and Result hooks for operation @p op.
 *
 * Sticky discipline: any inexactness in @p raw.sig must be confined
 * to bit 0 (OR-ed in by a prior right shift), and in that case the
 * significand's MSB must already be at or above the format's
 * normalisation point, so left-shifts inside roundPack never promote
 * a sticky bit into a value position.
 */
std::uint64_t roundPack(Format f, RawFloat raw, const OpCtx &ctx,
                        OpKind op);

/**
 * Render a bit pattern for humans: "-1.101p+3 (normal)",
 * "+0 (zero)", "nan", "+inf", "+0.01p-14 (subnormal)". The
 * significand is printed in binary with the hidden bit explicit —
 * the form fault-injection logs are easiest to read in.
 */
std::string fpDescribe(Format f, std::uint64_t bits);

/** Shift @p v right by @p n (>= 0), OR-ing lost bits into bit 0. */
std::uint64_t shiftRightSticky(std::uint64_t v, int n);

/** 128-bit variant of shiftRightSticky. */
unsigned __int128 shiftRightSticky128(unsigned __int128 v, int n);

} // namespace mparch::fp

#endif // MPARCH_FP_SOFTFLOAT_HH

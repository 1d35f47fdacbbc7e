/**
 * @file
 * IEEE754-2008 binary format descriptors.
 *
 * mparch implements half (binary16), single (binary32), and double
 * (binary64) arithmetic in software so that transient faults can be
 * injected into operand bits and into the internal datapath stages of
 * each operation — the paper's mixed-precision reliability questions
 * all hinge on how a bit flip at a given position propagates through
 * these formats.
 *
 * All values are carried as canonical bit patterns in the low
 * @c totalBits of a std::uint64_t (upper bits zero).
 */

#ifndef MPARCH_FP_FORMAT_HH
#define MPARCH_FP_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/bits.hh"
#include "common/logging.hh"

namespace mparch::fp {

/**
 * Hardware-accelerated precisions. Half/Single/Double are the three
 * the paper studies; Bfloat16 extends the methodology to the format
 * that has since displaced binary16 in deep-learning hardware (same
 * exponent range as single, 8-bit significand).
 */
enum class Precision { Half, Single, Double, Bfloat16 };

/** How many Precision values there are: the size of a table indexed
 *  by static_cast<std::size_t>(p). */
inline constexpr std::size_t kPrecisionCount =
    static_cast<std::size_t>(Precision::Bfloat16) + 1;

/** Human-readable name ("half" / "single" / "double"). */
constexpr std::string_view
precisionName(Precision p)
{
    switch (p) {
      case Precision::Half:   return "half";
      case Precision::Single: return "single";
      case Precision::Double: return "double";
      case Precision::Bfloat16: return "bfloat16";
    }
    return "?";
}

/** Inverse of precisionName(); nullopt for an unknown name. */
constexpr std::optional<Precision>
parsePrecision(std::string_view name)
{
    for (Precision p : {Precision::Half, Precision::Single,
                        Precision::Double, Precision::Bfloat16})
        if (precisionName(p) == name)
            return p;
    return std::nullopt;
}

/** The three precisions the paper studies (no bfloat16), in its
 *  presentation order. Not a count of Precision values: see
 *  kPrecisionCount. */
inline constexpr Precision paperPrecisions[] = {
    Precision::Double, Precision::Single, Precision::Half,
};

/**
 * Static description of an IEEE754 binary interchange format.
 *
 * @c manBits counts the stored (trailing) significand bits, i.e.
 * excludes the hidden leading bit.
 */
struct Format
{
    std::uint8_t expBits;
    std::uint8_t manBits;
    std::uint8_t totalBits;

    /** Exponent bias. */
    constexpr int bias() const { return (1 << (expBits - 1)) - 1; }

    /** All-ones biased exponent (inf/NaN marker). */
    constexpr int maxBiasedExp() const { return (1 << expBits) - 1; }

    /** Minimum unbiased exponent of a normal number. */
    constexpr int minExp() const { return 1 - bias(); }

    /** Maximum unbiased exponent of a finite number. */
    constexpr int maxExp() const { return maxBiasedExp() - 1 - bias(); }

    /** Bit position of the sign. */
    constexpr unsigned signPos() const { return totalBits - 1u; }

    /** Mask covering the stored significand field. */
    constexpr std::uint64_t manMask() const { return maskBits(manBits); }

    /** Mask covering all value bits of the format. */
    constexpr std::uint64_t valueMask() const
    {
        return maskBits(totalBits);
    }

    /** Hidden (integer) significand bit. */
    constexpr std::uint64_t hiddenBit() const
    {
        return 1ULL << manBits;
    }

    constexpr bool operator==(const Format &) const = default;
};

inline constexpr Format kHalf{5, 10, 16};
inline constexpr Format kSingle{8, 23, 32};
inline constexpr Format kDouble{11, 52, 64};

/** Google brain float: single's exponent, 7-bit significand. */
inline constexpr Format kBfloat16{8, 7, 16};

/** NVIDIA TensorFloat-32: single's exponent, half's significand.
 *  Usable with every fp-level routine (the softfloat core is fully
 *  format-generic); not wired into the Precision enum because no
 *  studied device stores it as a memory format. */
inline constexpr Format kTf32{8, 10, 19};

/** Map a precision tag to its format descriptor. */
constexpr Format
formatOf(Precision p)
{
    switch (p) {
      case Precision::Half:   return kHalf;
      case Precision::Single: return kSingle;
      case Precision::Double: return kDouble;
      case Precision::Bfloat16: return kBfloat16;
    }
    return kDouble;
}

/** Coarse classification of a bit pattern. */
enum class FpClass { Zero, Subnormal, Normal, Inf, NaN };

/** Sign bit of @p bits in format @p f. */
constexpr bool
signOf(Format f, std::uint64_t bits)
{
    return testBit(bits, f.signPos());
}

/** Biased exponent field of @p bits. */
constexpr int
biasedExpOf(Format f, std::uint64_t bits)
{
    return static_cast<int>(extractBits(bits, f.manBits, f.expBits));
}

/** Stored significand field of @p bits. */
constexpr std::uint64_t
mantissaOf(Format f, std::uint64_t bits)
{
    return bits & f.manMask();
}

/** Classify @p bits. */
constexpr FpClass
classify(Format f, std::uint64_t bits)
{
    const int e = biasedExpOf(f, bits);
    const std::uint64_t m = mantissaOf(f, bits);
    if (e == f.maxBiasedExp())
        return m ? FpClass::NaN : FpClass::Inf;
    if (e == 0)
        return m ? FpClass::Subnormal : FpClass::Zero;
    return FpClass::Normal;
}

/** Assemble a bit pattern from raw fields (no checking). */
constexpr std::uint64_t
packFields(Format f, bool sign, int biased_exp, std::uint64_t mantissa)
{
    return (static_cast<std::uint64_t>(sign) << f.signPos()) |
           (static_cast<std::uint64_t>(biased_exp) << f.manBits) |
           (mantissa & f.manMask());
}

/** Canonical quiet NaN. */
constexpr std::uint64_t
quietNaN(Format f)
{
    return packFields(f, false, f.maxBiasedExp(),
                      1ULL << (f.manBits - 1));
}

/** Signed infinity. */
constexpr std::uint64_t
infinity(Format f, bool negative)
{
    return packFields(f, negative, f.maxBiasedExp(), 0);
}

/** Signed zero. */
constexpr std::uint64_t
zero(Format f, bool negative)
{
    return packFields(f, negative, 0, 0);
}

/** Largest finite magnitude. */
constexpr std::uint64_t
maxFinite(Format f, bool negative)
{
    return packFields(f, negative, f.maxBiasedExp() - 1, f.manMask());
}

/** One in the given format. */
constexpr std::uint64_t
one(Format f)
{
    return packFields(f, false, f.bias(), 0);
}

/** True for NaN patterns. */
constexpr bool
isNaN(Format f, std::uint64_t bits)
{
    return classify(f, bits) == FpClass::NaN;
}

/** True for +/- infinity. */
constexpr bool
isInf(Format f, std::uint64_t bits)
{
    return classify(f, bits) == FpClass::Inf;
}

/** True for +/- zero. */
constexpr bool
isZero(Format f, std::uint64_t bits)
{
    return classify(f, bits) == FpClass::Zero;
}

/** True for anything that is neither NaN nor infinity. */
constexpr bool
isFinite(Format f, std::uint64_t bits)
{
    const FpClass c = classify(f, bits);
    return c != FpClass::NaN && c != FpClass::Inf;
}

} // namespace mparch::fp

#endif // MPARCH_FP_FORMAT_HH

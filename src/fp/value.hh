/**
 * @file
 * Typed wrappers over the softfloat core.
 *
 * Workloads are templated on Fp<Precision> so the same kernel source
 * runs in double, single, and half — exactly the paper's protocol of
 * keeping the algorithm fixed and changing only the data type. The
 * wrapper stores the canonical bit pattern, so fault injectors can
 * flip bits of live values directly through bits()/setBits().
 */

#ifndef MPARCH_FP_VALUE_HH
#define MPARCH_FP_VALUE_HH

#include <cstdint>
#include <string>

#include "fp/softfloat.hh"

namespace mparch::fp {

/**
 * A floating-point value of a statically known precision.
 *
 * All operators are routed through the instrumented softfloat core,
 * so they honour the FpContext hook installed by the enclosing
 * campaign and update op counters.
 */
template <Precision P>
class Fp
{
  public:
    static constexpr Precision precision = P;

    /** Format descriptor for this precision. */
    static constexpr Format
    format()
    {
        return formatOf(P);
    }

    /** Zero-initialised. */
    constexpr Fp() = default;

    /** Encode a host double (silent RNE conversion). */
    static Fp
    fromDouble(double v)
    {
        return Fp(fpFromDouble(format(), v));
    }

    /** Wrap raw format bits. */
    static constexpr Fp
    fromBits(std::uint64_t bits)
    {
        return Fp(bits & format().valueMask());
    }

    /** Decode to host double (exact for half/single). */
    double toDouble() const { return fpToDouble(format(), bits_); }

    /** Canonical bit pattern. */
    std::uint64_t bits() const { return bits_; }

    /** Overwrite the bit pattern (fault injection entry point). */
    void setBits(std::uint64_t bits)
    {
        bits_ = bits & format().valueMask();
    }

    Fp operator+(Fp o) const
    {
        return Fp(fpAdd(format(), bits_, o.bits_));
    }
    Fp operator-(Fp o) const
    {
        return Fp(fpSub(format(), bits_, o.bits_));
    }
    Fp operator*(Fp o) const
    {
        return Fp(fpMul(format(), bits_, o.bits_));
    }
    Fp operator/(Fp o) const
    {
        return Fp(fpDiv(format(), bits_, o.bits_));
    }
    Fp operator-() const { return Fp(fpNeg(format(), bits_)); }

    Fp &operator+=(Fp o) { return *this = *this + o; }
    Fp &operator-=(Fp o) { return *this = *this - o; }
    Fp &operator*=(Fp o) { return *this = *this * o; }
    Fp &operator/=(Fp o) { return *this = *this / o; }

    bool operator==(Fp o) const
    {
        return fpEqual(format(), bits_, o.bits_);
    }
    bool operator!=(Fp o) const { return !(*this == o); }
    bool operator<(Fp o) const
    {
        return fpLess(format(), bits_, o.bits_);
    }
    bool operator<=(Fp o) const
    {
        return fpLessEqual(format(), bits_, o.bits_);
    }
    bool operator>(Fp o) const { return o < *this; }
    bool operator>=(Fp o) const { return o <= *this; }

    /** True for NaN bit patterns. */
    bool isNaN() const { return fp::isNaN(format(), bits_); }

    /** True for +/- infinity. */
    bool isInf() const { return fp::isInf(format(), bits_); }

  private:
    constexpr explicit Fp(std::uint64_t bits) : bits_(bits) {}

    std::uint64_t bits_ = 0;
};

/** Fused multiply-add in the value's precision. */
template <Precision P>
Fp<P>
fma(Fp<P> a, Fp<P> b, Fp<P> c)
{
    return Fp<P>::fromBits(
        fpFma(Fp<P>::format(), a.bits(), b.bits(), c.bits()));
}

/** Square root in the value's precision. */
template <Precision P>
Fp<P>
sqrt(Fp<P> a)
{
    return Fp<P>::fromBits(fpSqrt(Fp<P>::format(), a.bits()));
}

/** Exponential in the value's precision. */
template <Precision P>
Fp<P>
exp(Fp<P> a)
{
    return Fp<P>::fromBits(fpExp(Fp<P>::format(), a.bits()));
}

/** Absolute value. */
template <Precision P>
Fp<P>
abs(Fp<P> a)
{
    return Fp<P>::fromBits(fpAbs(Fp<P>::format(), a.bits()));
}

} // namespace mparch::fp

#endif // MPARCH_FP_VALUE_HH

/**
 * @file
 * Oracle 3: algebraic and taxonomy properties.
 *
 * These checks need no reference value at all: they assert relations
 * the IEEE754 semantics force between *production* results —
 * commutativity, sign symmetry, special-value taxonomy — plus a
 * bounded-ULP envelope for exp against the host libm (the only oracle
 * layer that covers exp beyond the algorithm mirror, since it is not
 * correctly rounded).
 *
 * Property violations are self-contained evidence: they do not depend
 * on the exact or host oracle being right.
 */

#include "verify/verify.hh"

#include <bit>
#include <cmath>
#include <sstream>

#include "fp/softfloat.hh"

namespace mparch::verify {

using fp::FpClass;
using fp::Format;
using fp::classify;
using fp::infinity;
using fp::isNaN;
using fp::isZero;
using fp::quietNaN;
using fp::signOf;
using fp::zero;

namespace {

std::string
expect(const char *what, Format f, std::uint64_t want,
       std::uint64_t got)
{
    std::ostringstream os;
    os << what << ": expected " << fp::fpDescribe(f, want) << ", got "
       << fp::fpDescribe(f, got);
    return os.str();
}

/** result must be the canonical quiet NaN. */
void
requireQuietNaN(const char *why, Format f, std::uint64_t result,
                std::vector<std::string> &out)
{
    if (result != quietNaN(f))
        out.push_back(expect(why, f, quietNaN(f), result));
}

void
requireBits(const char *why, Format f, std::uint64_t want,
            std::uint64_t got, std::vector<std::string> &out)
{
    if (got != want)
        out.push_back(expect(why, f, want, got));
}

/** Taxonomy of special operands, per op. */
void
checkTaxonomy(const Case &c, std::uint64_t result,
              std::vector<std::string> &out)
{
    const Format f = c.fmt;
    const Format rf = c.resultFormat();
    const FpClass ca = classify(f, c.a);
    const FpClass cb = classify(f, c.b);

    // A NaN in any consumed operand position yields the canonical
    // quiet NaN, whatever the op.
    const unsigned arity = vopArity(c.op);
    if (ca == FpClass::NaN || (arity >= 2 && cb == FpClass::NaN) ||
        (arity >= 3 && isNaN(f, c.c))) {
        requireQuietNaN("NaN operand", rf, result, out);
        return;
    }

    switch (c.op) {
      case VOp::Add:
      case VOp::Sub: {
        // Effective sign of b under the op.
        const bool bs = signOf(f, c.b) != (c.op == VOp::Sub);
        if (ca == FpClass::Inf && cb == FpClass::Inf) {
            if (signOf(f, c.a) != bs)
                requireQuietNaN("inf - inf", f, result, out);
            else
                requireBits("inf + inf", f,
                            infinity(f, signOf(f, c.a)), result, out);
        } else if (ca == FpClass::Inf) {
            requireBits("inf + finite", f,
                        infinity(f, signOf(f, c.a)), result, out);
        } else if (cb == FpClass::Inf) {
            requireBits("finite + inf", f, infinity(f, bs), result,
                        out);
        }
        break;
      }
      case VOp::Mul: {
        const bool sign = signOf(f, c.a) != signOf(f, c.b);
        if ((ca == FpClass::Inf && cb == FpClass::Zero) ||
            (ca == FpClass::Zero && cb == FpClass::Inf))
            requireQuietNaN("0 * inf", f, result, out);
        else if (ca == FpClass::Inf || cb == FpClass::Inf)
            requireBits("inf * x", f, infinity(f, sign), result, out);
        else if (ca == FpClass::Zero || cb == FpClass::Zero)
            requireBits("0 * x", f, zero(f, sign), result, out);
        break;
      }
      case VOp::Div: {
        const bool sign = signOf(f, c.a) != signOf(f, c.b);
        if (ca == FpClass::Inf && cb == FpClass::Inf)
            requireQuietNaN("inf / inf", f, result, out);
        else if (ca == FpClass::Zero && cb == FpClass::Zero)
            requireQuietNaN("0 / 0", f, result, out);
        else if (ca == FpClass::Inf)
            requireBits("inf / x", f, infinity(f, sign), result, out);
        else if (cb == FpClass::Zero)
            requireBits("x / 0", f, infinity(f, sign), result, out);
        else if (cb == FpClass::Inf)
            requireBits("x / inf", f, zero(f, sign), result, out);
        else if (ca == FpClass::Zero)
            requireBits("0 / x", f, zero(f, sign), result, out);
        break;
      }
      case VOp::Sqrt:
        if (ca == FpClass::Zero)
            requireBits("sqrt(+/-0)", f, c.a, result, out);
        else if (signOf(f, c.a))
            requireQuietNaN("sqrt(negative)", f, result, out);
        else if (ca == FpClass::Inf)
            requireBits("sqrt(+inf)", f, c.a, result, out);
        break;
      case VOp::Exp:
        if (ca == FpClass::Zero)
            requireBits("exp(+/-0)", f, fp::one(f), result, out);
        else if (ca == FpClass::Inf)
            requireBits("exp(+/-inf)", f,
                        signOf(f, c.a) ? zero(f, false) : c.a, result,
                        out);
        break;
      case VOp::Convert:
        if (ca == FpClass::Inf)
            requireBits("convert(inf)", rf,
                        infinity(rf, signOf(f, c.a)), result, out);
        else if (ca == FpClass::Zero)
            requireBits("convert(+/-0)", rf, zero(rf, signOf(f, c.a)),
                        result, out);
        break;
      default:
        break;
    }
}

/** Commutativity and sign-symmetry relations between production runs. */
void
checkAlgebra(const Case &c, std::uint64_t result,
             std::vector<std::string> &out)
{
    const Format f = c.fmt;
    const auto flip = [&](std::uint64_t v) {
        return v ^ (1ULL << f.signPos());
    };

    switch (c.op) {
      case VOp::Add:
      case VOp::Mul: {
        Case swapped = c;
        std::swap(swapped.a, swapped.b);
        requireBits(c.op == VOp::Add ? "add commutativity"
                                     : "mul commutativity",
                    f, result, runProduction(swapped), out);
        break;
      }
      case VOp::Fma: {
        Case swapped = c;
        std::swap(swapped.a, swapped.b);
        requireBits("fma a*b == b*a", f, result,
                    runProduction(swapped), out);
        break;
      }
      default:
        break;
    }

    if (isNaN(f, result))
        return;

    switch (c.op) {
      case VOp::Mul:
      case VOp::Div: {
        // (-a) op b == -(a op b), exactly, zeros and infs included.
        Case neg = c;
        neg.a = flip(neg.a);
        requireBits("sign symmetry (-a)", f, flip(result),
                    runProduction(neg), out);
        break;
      }
      case VOp::Add:
      case VOp::Sub: {
        // (-a) op (-b) == -(a op b) except for exact zero results,
        // whose sign is fixed (+0 under RNE) regardless of inputs.
        if (isZero(f, result))
            break;
        Case neg = c;
        neg.a = flip(neg.a);
        neg.b = flip(neg.b);
        requireBits("sign symmetry (-a, -b)", f, flip(result),
                    runProduction(neg), out);
        break;
      }
      case VOp::Fma: {
        if (isZero(f, result))
            break;
        Case neg = c;
        neg.a = flip(neg.a);
        neg.c = flip(neg.c);
        requireBits("sign symmetry (-a, b, -c)", f, flip(result),
                    runProduction(neg), out);
        break;
      }
      default:
        break;
    }
}

/**
 * Bounded-ULP envelope for exp: the in-format result must land within
 * a few grid steps of the host libm value rounded into the format.
 * Checked only when both sides are finite — near
 * overflow/underflow a one-step disagreement can cross into inf/0 and
 * the envelope is meaningless there.
 */
void
checkEnvelope(const Case &c, std::uint64_t result,
              const PropertyOptions &opts,
              std::vector<std::string> &out)
{
    if (c.op != VOp::Exp)
        return;
    const Format f = c.fmt;
    if (!fp::isFinite(f, c.a) || !fp::isFinite(f, result))
        return;

    const double x = fp::fpToDouble(f, c.a);
    const double y = std::exp(x);
    if (!std::isfinite(y))
        return;

    // Round the libm value into the format with the exact oracle's
    // conversion (independent of production code).
    Case conv;
    conv.op = VOp::Convert;
    conv.fmt = fp::kDouble;
    conv.dst = f;
    conv.a = std::bit_cast<std::uint64_t>(y);
    const OracleResult ref = exactOracle(conv);
    if (!ref.supported || !fp::isFinite(f, ref.bits))
        return;

    const std::uint64_t dist = ulpDistance(f, result, ref.bits);
    // The Cody-Waite reduction r = x - k*ln2 carries ln2's in-format
    // representation error k times, and exp turns the absolute error
    // in r into a relative error of the result: ~ k * 2^-(p+1)
    // relative, i.e. about k/2 ULPs. Budget one ULP per unit of k on
    // top of the base tolerance.
    const double k = std::abs(x) * 1.4426950408889634;
    const std::uint64_t tol =
        static_cast<std::uint64_t>(opts.expUlpTol) +
        static_cast<std::uint64_t>(std::ceil(std::min(k, 16384.0)));
    if (dist > tol) {
        std::ostringstream os;
        os << "exp envelope: " << dist
           << " ulp from libm (tolerance " << tol << ", libm value "
           << fp::fpDescribe(f, ref.bits) << ")";
        out.push_back(os.str());
    }
}

/** Widening conversions are exact and round-trip to the same bits. */
void
checkRoundTrip(const Case &c, std::uint64_t result,
               std::vector<std::string> &out)
{
    if (c.op != VOp::Convert)
        return;
    const Format src = c.fmt;
    const Format dst = c.dst;
    const bool widening =
        dst.manBits >= src.manBits && dst.expBits >= src.expBits;
    if (!widening || isNaN(src, c.a))
        return;
    const std::uint64_t back = fp::fpConvertSilent(src, dst, result);
    requireBits("widening round-trip", src, c.a, back, out);
}

} // namespace

std::vector<std::string>
checkProperties(const Case &c, std::uint64_t result,
                const PropertyOptions &opts)
{
    std::vector<std::string> out;
    checkTaxonomy(c, result, out);
    checkAlgebra(c, result, out);
    checkEnvelope(c, result, opts, out);
    checkRoundTrip(c, result, out);
    return out;
}

} // namespace mparch::verify

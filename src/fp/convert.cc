/**
 * @file
 * Format conversions and host-double interchange.
 */

#include "fp/softfloat.hh"

#include <bit>

#include "fp/internal.hh"

namespace mparch::fp {

using detail::Unpacked;
using detail::unpackFinite;

namespace {

/** Conversion body shared by the instrumented and silent variants. */
std::uint64_t
convertCore(Format dst, Format src, std::uint64_t a, const OpCtx &ctx,
            bool instrumented)
{
    if (instrumented) {
        a = detail::touch(ctx, OpKind::Convert, Stage::OperandA,
                          src.totalBits, a) & src.valueMask();
    }
    const FpClass ca = classify(src, a);
    const bool sign = signOf(src, a);
    if (ca == FpClass::NaN)
        return quietNaN(dst);
    if (ca == FpClass::Inf)
        return infinity(dst, sign);
    if (ca == FpClass::Zero)
        return zero(dst, sign);

    const Unpacked ua = unpackFinite(src, a);
    // Keep three guard bits so narrowing rounds correctly; widening
    // is exact and the guards stay zero.
    return roundPack(dst, {ua.sign, ua.exp - 3, ua.sig << 3},
                     instrumented ? ctx : OpCtx{}, OpKind::Convert);
}

} // namespace

std::uint64_t
fpConvert(Format dst, Format src, std::uint64_t a)
{
    const OpCtx ctx = detail::enterOp(OpKind::Convert);
    if (ctx.host && detail::hostAdmitsConvert(dst, src))
        return detail::hostConvert(dst, src, a);
    return convertCore(dst, src, a, ctx, true);
}

std::uint64_t
fpConvertSilent(Format dst, Format src, std::uint64_t a)
{
    // Silent conversions always round to nearest-even.
    if (detail::hostAdmitsConvert(dst, src) && detail::hostFpuReady())
        return detail::hostConvert(dst, src, a);
    return convertCore(dst, src, a, OpCtx{}, false);
}

std::uint64_t
fpFromDouble(Format f, double v)
{
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (f == kDouble)
        return bits;
    return fpConvertSilent(f, kDouble, bits);
}

double
fpToDouble(Format f, std::uint64_t a)
{
    if (f == kDouble)
        return std::bit_cast<double>(a);
    // Widening to binary64 is exact for binary16/32.
    return std::bit_cast<double>(fpConvertSilent(kDouble, f, a));
}

std::string
fpDescribe(Format f, std::uint64_t bits)
{
    const FpClass cls = classify(f, bits);
    const char sign = signOf(f, bits) ? '-' : '+';
    switch (cls) {
      case FpClass::NaN:
        return "nan";
      case FpClass::Inf:
        return std::string(1, sign) + "inf";
      case FpClass::Zero:
        return std::string(1, sign) + "0 (zero)";
      default:
        break;
    }
    const bool subnormal = cls == FpClass::Subnormal;
    const std::uint64_t man = mantissaOf(f, bits);
    const int exp =
        subnormal ? f.minExp() : biasedExpOf(f, bits) - f.bias();
    std::string out(1, sign);
    out += subnormal ? "0." : "1.";
    for (int b = static_cast<int>(f.manBits) - 1; b >= 0; --b)
        out += testBit(man, static_cast<unsigned>(b)) ? '1' : '0';
    // Trim trailing zeros but keep at least one fraction digit.
    while (out.back() == '0' && out[out.size() - 2] != '.')
        out.pop_back();
    out += "p";
    out += exp >= 0 ? "+" : "";
    out += std::to_string(exp);
    out += subnormal ? " (subnormal)" : " (normal)";
    return out;
}

} // namespace mparch::fp

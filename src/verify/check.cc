/**
 * @file
 * Case execution, naming, ULP metric, and the combined check driver.
 */

#include "verify/verify.hh"

#include <sstream>

#include "fp/softfloat.hh"

namespace mparch::verify {

using fp::Format;
using fp::isNaN;
using fp::kBfloat16;
using fp::kDouble;
using fp::kHalf;
using fp::kSingle;
using fp::kTf32;
using fp::signOf;

const char *
vopName(VOp op)
{
    switch (op) {
      case VOp::Add:     return "add";
      case VOp::Sub:     return "sub";
      case VOp::Mul:     return "mul";
      case VOp::Div:     return "div";
      case VOp::Fma:     return "fma";
      case VOp::Sqrt:    return "sqrt";
      case VOp::Exp:     return "exp";
      case VOp::Convert: return "convert";
      case VOp::NumOps:  break;
    }
    return "?";
}

std::optional<VOp>
parseVOp(std::string_view name)
{
    for (VOp op : allVOps)
        if (name == vopName(op))
            return op;
    return std::nullopt;
}

unsigned
vopArity(VOp op)
{
    switch (op) {
      case VOp::Fma:
        return 3;
      case VOp::Add:
      case VOp::Sub:
      case VOp::Mul:
      case VOp::Div:
        return 2;
      default:
        return 1;
    }
}

const char *
formatName(fp::Format f)
{
    if (f == kHalf)
        return "half";
    if (f == kSingle)
        return "single";
    if (f == kDouble)
        return "double";
    if (f == kBfloat16)
        return "bfloat16";
    if (f == kTf32)
        return "tf32";
    return "?";
}

std::optional<fp::Format>
parseFormat(std::string_view name)
{
    for (Format f : {kHalf, kSingle, kDouble, kBfloat16, kTf32})
        if (name == formatName(f))
            return f;
    return std::nullopt;
}

std::uint64_t
runGated(const Case &c)
{
    const Format f = c.fmt;
    switch (c.op) {
      case VOp::Add:     return fp::fpAdd(f, c.a, c.b);
      case VOp::Sub:     return fp::fpSub(f, c.a, c.b);
      case VOp::Mul:     return fp::fpMul(f, c.a, c.b);
      case VOp::Div:     return fp::fpDiv(f, c.a, c.b);
      case VOp::Fma:     return fp::fpFma(f, c.a, c.b, c.c);
      case VOp::Sqrt:    return fp::fpSqrt(f, c.a);
      case VOp::Exp:     return fp::fpExp(f, c.a);
      case VOp::Convert: return fp::fpConvert(c.dst, f, c.a);
      case VOp::NumOps:  break;
    }
    return 0;
}

std::uint64_t
runProduction(const Case &c)
{
    fp::FpHook identity;
    fp::FpContext ctx;
    ctx.hook = &identity;
    fp::FpEnvGuard guard(ctx);
    return runGated(c);
}

std::uint64_t
ulpDistance(fp::Format f, std::uint64_t x, std::uint64_t y)
{
    if (isNaN(f, x) || isNaN(f, y))
        return UINT64_MAX;

    // Map the sign-magnitude pattern onto a signed line where
    // consecutive representable values (infinities included) differ
    // by one; +0 and -0 collapse onto the same point.
    const auto line = [&](std::uint64_t b) -> std::int64_t {
        const auto mag =
            static_cast<std::int64_t>(b & (f.valueMask() >> 1));
        return signOf(f, b) ? -mag : mag;
    };
    const std::int64_t lx = line(x);
    const std::int64_t ly = line(y);
    return lx >= ly ? static_cast<std::uint64_t>(lx - ly)
                    : static_cast<std::uint64_t>(ly - lx);
}

namespace {

void
appendHex(std::ostringstream &os, fp::Format f, std::uint64_t bits)
{
    os << "0x" << std::hex << bits << std::dec << " ("
       << fp::fpDescribe(f, bits) << ")";
}

} // namespace

std::string
corpusLine(const Case &c)
{
    std::ostringstream os;
    os << vopName(c.op) << ' ' << formatName(c.fmt);
    if (c.op == VOp::Convert)
        os << ' ' << formatName(c.dst);
    os << std::hex;
    os << " 0x" << c.a;
    const unsigned arity = vopArity(c.op);
    if (arity >= 2)
        os << " 0x" << c.b;
    if (arity >= 3)
        os << " 0x" << c.c;
    return os.str();
}

std::string
reproCommand(const Case &c)
{
    std::ostringstream os;
    os << "mparch_verify check --op " << vopName(c.op) << " --format "
       << formatName(c.fmt);
    if (c.op == VOp::Convert)
        os << " --dst " << formatName(c.dst);
    os << std::hex;
    os << " --a 0x" << c.a;
    const unsigned arity = vopArity(c.op);
    if (arity >= 2)
        os << " --b 0x" << c.b;
    if (arity >= 3)
        os << " --c 0x" << c.c;
    return os.str();
}

std::string
describeMismatch(const Mismatch &m)
{
    const Case &c = m.c;
    const Format rf = c.resultFormat();
    std::ostringstream os;
    os << vopName(c.op) << ' ' << formatName(c.fmt);
    if (c.op == VOp::Convert)
        os << " -> " << formatName(c.dst);
    os << " [" << m.oracle << "]\n";

    os << "  a = ";
    appendHex(os, c.fmt, c.a);
    const unsigned arity = vopArity(c.op);
    if (arity >= 2) {
        os << "\n  b = ";
        appendHex(os, c.fmt, c.b);
    }
    if (arity >= 3) {
        os << "\n  c = ";
        appendHex(os, c.fmt, c.c);
    }
    os << "\n  produced ";
    appendHex(os, rf, m.got);
    if (m.oracle != "property") {
        os << "\n  expected ";
        appendHex(os, rf, m.want);
    }
    if (!m.detail.empty())
        os << "\n  " << m.detail;
    os << "\n  repro: " << reproCommand(c)
       << "\n  corpus: " << corpusLine(c);
    return os.str();
}

bool
checkCase(const Case &c, const CheckOptions &opts,
          std::vector<Mismatch> *out)
{
    const std::uint64_t got = runProduction(c);
    bool ok = true;

    if (opts.host) {
        const OracleResult host = hostOracle(c);
        if (host.supported && host.bits != got) {
            ok = false;
            if (out)
                out->push_back({c, got, host.bits, "host", ""});
        }
    }
    if (opts.exact) {
        const OracleResult exact = exactOracle(c);
        if (exact.supported && exact.bits != got) {
            ok = false;
            if (out)
                out->push_back({c, got, exact.bits, "exact", ""});
        }
    }
    const std::uint64_t gated = runGated(c);
    if (gated != got) {
        ok = false;
        if (out)
            out->push_back({c, gated, got, "host-gate", ""});
    }
    if (opts.props) {
        for (std::string &violation :
             checkProperties(c, got, opts.prop)) {
            ok = false;
            if (out)
                out->push_back(
                    {c, got, 0, "property", std::move(violation)});
        }
    }
    return ok;
}

} // namespace mparch::verify

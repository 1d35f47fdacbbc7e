/**
 * @file
 * host-math: native floating-point math in src/fp lives in host.cc.
 *
 * The softfloat core is the reference every campaign result rests
 * on; the host FPU may stand in for it only through the host-FPU gate
 * in src/fp/host.cc, whose admissibility table says where a native
 * result is provably the softfloat result. A native fma or sqrt
 * anywhere else in src/fp would be a second, unverified
 * implementation, and a `#pragma STDC FP_CONTRACT` could let the
 * compiler fuse a host a*b+c into one rounding. The gate is host.cc
 * and fp/host.hh, whose inline per-format ops the block gate's
 * HostFp<P> runs inside kernels (built with -ffp-contract=off, a
 * PUBLIC option of mparch_fp). In every other src/fp source the rule
 * flags:
 *
 *  - `fma`, `fmaf`, `fmal`, `sqrt`, `sqrtf`, `sqrtl` (plain, `std::`-
 *    or `::`-qualified; member accesses are not flagged);
 *  - every `__builtin_fma*` and `__builtin_sqrt*`;
 *  - `#pragma STDC FP_CONTRACT`.
 *
 * Exemptions, from an audit of the tree: fp/value.hh declares the
 * Fp<P> overloads `fma(a, b, c)` and `sqrt(a)`, which run the
 * softfloat fpFma/fpSqrt, and transcendental.cc composes exp over a
 * value type (its own softfloat SoftValue or HostFp<P>) through the
 * same unqualified `fma`, so unqualified `fma`/`sqrt` in those two
 * files are not host math (a `std::` or `::` spelling still is).
 * convert.cc and transcendental.cc hold host-double range checks
 * (std::log, std::isfinite, std::lround, std::clamp), none of which
 * this rule covers; they need no exemption.
 *
 * ISA dispatch belongs to the gate too: host.cc compiles the single
 * and double fma chain once for the FMA instructions and once for the
 * baseline, and picks one by __builtin_cpu_supports, and the tests
 * prove both equal to softfloat. A function built for another
 * instruction set elsewhere would carry unproven host math of its
 * own. In every source under src/ other than fp/host.{hh,cc} the rule
 * therefore also flags:
 *
 *  - a `target` or `target_clones` attribute (`[[gnu::...]]` or
 *    `__attribute__((...))`, either spelling) and `#pragma GCC
 *    target`;
 *  - every `__builtin_cpu_*` (supports, is, init).
 */

#include "analysis/rules.hh"

#include <string_view>

namespace mparch::analysis {

namespace {

using detail::memberAccess;
using detail::stdQualified;

const char *const kHostMath[] = {
    "fma", "fmaf", "fmal", "sqrt", "sqrtf", "sqrtl",
};

/** An attribute that builds a function for another instruction set. */
bool
isTargetAttribute(const Token &t)
{
    return t.kind == TokKind::Identifier &&
           (t.text == "target" || t.text == "target_clones" ||
            t.text == "__target__" || t.text == "__target_clones__");
}

bool
isHostMath(const std::string &name)
{
    for (const char *banned : kHostMath)
        if (name == banned)
            return true;
    const std::string_view view(name);
    return view.starts_with("__builtin_fma") ||
           view.starts_with("__builtin_sqrt");
}

class HostMathRule final : public Rule
{
  public:
    const char *name() const override { return "host-math"; }

    const char *
    summary() const override
    {
        return "native fma/sqrt and FP_CONTRACT pragmas in src/fp, and "
               "ISA dispatch in src, only in the host-FPU gate "
               "(src/fp/host.cc, host.hh)";
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out) const
        override
    {
        // host.cc and host.hh: the host-FPU gate itself.
        if (file.pathHas("src/fp") && file.stem() == "host")
            return;
        if (file.pathHas("src"))
            checkIsaDispatch(file, out);
        if (file.pathHas("src/fp"))
            checkNativeMath(file, out);
    }

  private:
    void
    checkIsaDispatch(const SourceFile &file,
                     std::vector<Finding> &out) const
    {
        const auto &code = file.code;
        for (std::size_t i = 0; i < code.size(); ++i) {
            const Token &t = code[i];
            if (t.kind == TokKind::Directive && t.text == "pragma" &&
                i + 2 < code.size() && code[i + 1].isIdent("GCC") &&
                code[i + 2].isIdent("target")) {
                reportDispatch(file, t, "#pragma GCC target", out);
                continue;
            }
            if (t.kind != TokKind::Identifier)
                continue;
            if (std::string_view(t.text).starts_with("__builtin_cpu_")) {
                reportDispatch(file, t, t.text, out);
                continue;
            }
            // [[gnu::target(...)]]
            if (isTargetAttribute(t) && i >= 2 &&
                code[i - 1].isPunct("::") &&
                (code[i - 2].isIdent("gnu") ||
                 code[i - 2].isIdent("__gnu__"))) {
                reportDispatch(file, t, t.text + " attribute", out);
                continue;
            }
            // __attribute__((..., target(...), ...))
            if ((t.text == "__attribute__" || t.text == "__attribute") &&
                i + 1 < code.size() && code[i + 1].isPunct("(")) {
                const std::size_t close = detail::matchParen(code, i + 1);
                for (std::size_t k = i + 2; k < close; ++k) {
                    if (isTargetAttribute(code[k]) &&
                        k + 1 < close && code[k + 1].isPunct("("))
                        reportDispatch(file, code[k],
                                       code[k].text + " attribute", out);
                }
                i = close;
            }
        }
    }

    void
    checkNativeMath(const SourceFile &file,
                    std::vector<Finding> &out) const
    {
        const bool fpOverloads =
            (file.stem() == "value" && file.isHeader()) ||
            (file.stem() == "transcendental" && !file.isHeader());
        const auto &code = file.code;
        for (std::size_t i = 0; i < code.size(); ++i) {
            const Token &t = code[i];
            if (t.kind == TokKind::Directive && t.text == "pragma" &&
                i + 2 < code.size() && code[i + 1].isIdent("STDC") &&
                code[i + 2].isIdent("FP_CONTRACT")) {
                report(file, t, "#pragma STDC FP_CONTRACT", out);
                continue;
            }
            if (t.kind != TokKind::Identifier || !isHostMath(t.text) ||
                memberAccess(code, i))
                continue;
            if (fpOverloads && (t.text == "fma" || t.text == "sqrt") &&
                !stdQualified(code, i))
                continue;
            report(file, t, t.text, out);
        }
    }

    void
    reportDispatch(const SourceFile &file, const Token &t,
                   const std::string &what,
                   std::vector<Finding> &out) const
    {
        Finding f;
        f.rule = name();
        f.path = file.path;
        f.line = t.line;
        f.col = t.col;
        f.message = what + ": ISA dispatch outside the host-FPU gate";
        f.hint = "compile for another instruction set only in "
                 "src/fp/host.cc, next to fmaRunFmaUnit, with a test "
                 "that both compilations equal softfloat";
        out.push_back(std::move(f));
    }

    void
    report(const SourceFile &file, const Token &t,
           const std::string &what, std::vector<Finding> &out) const
    {
        Finding f;
        f.rule = name();
        f.path = file.path;
        f.line = t.line;
        f.col = t.col;
        f.message = what + ": native floating-point math in src/fp "
                           "outside the host-FPU gate";
        f.hint = "compute through the softfloat core, or add the op "
                 "to src/fp/host.cc behind OpCtx::host";
        out.push_back(std::move(f));
    }
};

} // namespace

const Rule &
hostMathRule()
{
    static const HostMathRule rule;
    return rule;
}

} // namespace mparch::analysis

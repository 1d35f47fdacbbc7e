/**
 * @file
 * hook-coverage: every softfloat datapath stage stays injectable.
 *
 * The paper's methodology (CAROL-FI-style injection into every
 * datapath stage) only holds if every arithmetic path in the
 * softfloat core routes through the OpCtx hook machinery: an op
 * entry captures dispatch state once via detail::enterOp(op), and
 * every internal stage value passes through detail::touch(ctx, ...).
 * A new code path that rounds or manipulates significands without
 * threading the OpCtx is invisible to fault injection — campaigns
 * still run, but silently under-cover the datapath, skewing FIT/TRE
 * results in ways no dynamic test notices. Two checks over
 * src/fp sources:
 *
 *  1. Every roundPack(...) call threads an OpCtx argument (the
 *     rounding stage is where PreRoundSig/ExponentLogic/Result
 *     faults strike).
 *  2. Every function that touches a datapath stage either captures
 *     the dispatch state itself (calls detail::enterOp) or receives
 *     it from its caller (takes an OpCtx parameter).
 */

#include "analysis/rules.hh"

namespace mparch::analysis {

namespace {

using detail::matchClose;
using detail::signatureBegin;

bool
rangeHasIdent(const std::vector<Token> &code, std::size_t begin,
              std::size_t end, const char *ident)
{
    for (std::size_t j = begin; j < end && j < code.size(); ++j)
        if (code[j].isIdent(ident))
            return true;
    return false;
}

class HookCoverageRule final : public Rule
{
  public:
    const char *name() const override { return "hook-coverage"; }

    const char *
    summary() const override
    {
        return "softfloat arithmetic threads OpCtx so every datapath "
               "stage remains fault-injectable";
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out) const
        override
    {
        if (!file.pathHas("src/fp") || file.isHeader())
            return;
        const auto &code = file.code;
        // 1. roundPack call sites must carry the OpCtx.
        for (std::size_t i = 0; i + 1 < code.size(); ++i) {
            if (!code[i].isIdent("roundPack") ||
                !code[i + 1].isPunct("("))
                continue;
            const std::size_t close = matchClose(code, i + 1);
            if (rangeHasIdent(code, i + 1, close, "ctx") ||
                rangeHasIdent(code, i + 1, close, "oc") ||
                rangeHasIdent(code, i + 1, close, "OpCtx"))
                continue;
            Finding f;
            f.rule = name();
            f.path = file.path;
            f.line = code[i].line;
            f.col = code[i].col;
            f.message =
                "roundPack called without threading the OpCtx — "
                "faults in the rounding stages (PreRoundSig, "
                "ExponentLogic, Result) would be invisible to hooks";
            f.hint = "pass the OpCtx captured by detail::enterOp(op) "
                     "at the operation entry point";
            out.push_back(std::move(f));
        }
        // 2. touch() users must have op-dispatch state in scope.
        for (const auto &[open, close] : file.functions) {
            bool touches = false;
            unsigned line = 0, col = 0;
            for (std::size_t j = open; j < close; ++j) {
                if (code[j].isIdent("touch") && j + 1 < code.size() &&
                    code[j + 1].isPunct("(")) {
                    touches = true;
                    line = code[j].line;
                    col = code[j].col;
                    break;
                }
            }
            if (!touches)
                continue;
            const std::size_t sig = signatureBegin(code, open);
            if (rangeHasIdent(code, open, close, "enterOp") ||
                rangeHasIdent(code, sig, open, "OpCtx"))
                continue;
            Finding f;
            f.rule = name();
            f.path = file.path;
            f.line = line;
            f.col = col;
            f.message =
                "datapath stage touched outside a hooked operation: "
                "no detail::enterOp(op) call and no OpCtx parameter "
                "in this function";
            f.hint = "capture dispatch state once at the op entry "
                     "(const OpCtx ctx = detail::enterOp(op)) or "
                     "accept the caller's OpCtx";
            out.push_back(std::move(f));
        }
    }
};

} // namespace

const Rule &
hookCoverageRule()
{
    static const HookCoverageRule rule;
    return rule;
}

} // namespace mparch::analysis

/**
 * @file
 * rng-discipline: all randomness flows through common/rng.
 *
 * The whole reproduction depends on bit-identical random streams:
 * std engine types (mt19937, ...) have implementation-defined
 * distribution behaviour, so any draw through <random> machinery can
 * differ between libstdc++ and libc++ builds. Three checks:
 *
 *  1. No std random engine / distribution / seed_seq / std::shuffle
 *     anywhere — mparch::Rng is the only generator.
 *  2. No default-constructed Rng at function scope: a bare `Rng r;`
 *     silently shares the library-wide default seed with every other
 *     bare Rng, entangling streams that must be independent.
 *  3. In the trial machinery (src/fault/, src/core/), every Rng must
 *     be derived from the counter-based trialRng(seed, index) (or
 *     fork()/mix() thereof): a sequentially shared stream would make
 *     trial results depend on execution order, breaking resume and
 *     --jobs invariance.
 */

#include "analysis/rules.hh"

namespace mparch::analysis {

namespace {

const char *const kStdRandomTypes[] = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "ranlux24", "ranlux24_base", "ranlux48", "ranlux48_base",
    "knuth_b", "default_random_engine", "seed_seq",
    "uniform_int_distribution", "uniform_real_distribution",
    "normal_distribution", "bernoulli_distribution",
    "poisson_distribution", "exponential_distribution",
    "geometric_distribution", "binomial_distribution",
    "negative_binomial_distribution", "discrete_distribution",
    "gamma_distribution", "weibull_distribution",
    "extreme_value_distribution", "lognormal_distribution",
    "chi_squared_distribution", "cauchy_distribution",
    "fisher_f_distribution", "student_t_distribution",
    "piecewise_constant_distribution", "piecewise_linear_distribution",
};

bool
isStdRandomType(const Token &t)
{
    if (t.kind != TokKind::Identifier &&
        t.kind != TokKind::HeaderName)
        return false;
    for (const char *name : kStdRandomTypes)
        if (t.text == name)
            return true;
    return false;
}

/** Does [begin, end) mention a counter-derived stream source? */
bool
mentionsDerivedStream(const std::vector<Token> &code, std::size_t begin,
                      std::size_t end)
{
    for (std::size_t j = begin; j < end && j < code.size(); ++j) {
        const Token &t = code[j];
        if (t.isIdent("trialRng") || t.isIdent("fork") ||
            t.isIdent("mix"))
            return true;
    }
    return false;
}

class RngDisciplineRule final : public Rule
{
  public:
    const char *name() const override { return "rng-discipline"; }

    const char *
    summary() const override
    {
        return "randomness only via mparch::Rng; trial code derives "
               "streams from trialRng(seed, index)";
    }

    void
    check(const SourceFile &file, std::vector<Finding> &out) const
        override
    {
        const auto &code = file.code;
        const bool trialTree =
            file.pathHas("src/fault") || file.pathHas("src/core");
        for (std::size_t i = 0; i < code.size(); ++i) {
            const Token &t = code[i];
            if (isStdRandomType(t)) {
                Finding f;
                f.rule = name();
                f.path = file.path;
                f.line = t.line;
                f.col = t.col;
                f.message =
                    "std <random> machinery (" + t.text +
                    ") is not bit-portable across standard libraries";
                f.hint = "use mparch::Rng from common/rng.hh; its "
                         "distribution helpers are bit-identical "
                         "everywhere";
                out.push_back(std::move(f));
                continue;
            }
            if (t.isIdent("shuffle") &&
                detail::stdQualified(code, i)) {
                Finding f;
                f.rule = name();
                f.path = file.path;
                f.line = t.line;
                f.col = t.col;
                f.message = "std::shuffle draws from the URBG in an "
                            "implementation-defined way";
                f.hint = "write a Fisher-Yates loop over "
                         "Rng::below(i + 1) instead";
                out.push_back(std::move(f));
                continue;
            }
            if (!t.isIdent("Rng") || detail::memberAccess(code, i))
                continue;
            checkRngConstruction(file, i, trialTree, out);
        }
    }

  private:
    void
    checkRngConstruction(const SourceFile &file, std::size_t i,
                         bool trialTree,
                         std::vector<Finding> &out) const
    {
        const auto &code = file.code;
        const ScopeKind scope = file.scope[i];
        const bool inFunction = scope == ScopeKind::Function ||
                                scope == ScopeKind::Block;
        // `Rng r;` / `Rng r{};` / `Rng()` — default construction.
        if (inFunction && i + 2 < code.size() &&
            code[i + 1].kind == TokKind::Identifier &&
            (code[i + 2].isPunct(";") ||
             (code[i + 2].isPunct("{") && i + 3 < code.size() &&
              code[i + 3].isPunct("}")))) {
            Finding f;
            f.rule = name();
            f.path = file.path;
            f.line = code[i].line;
            f.col = code[i].col;
            f.message =
                "default-constructed Rng shares the library-wide "
                "default seed with every other bare Rng";
            f.hint = "seed explicitly, or derive an independent "
                     "stream via trialRng(seed, index) or "
                     "parent.fork()";
            out.push_back(std::move(f));
            return;
        }
        if (!trialTree || !inFunction)
            return;
        // Trial machinery: Rng x(expr...) / Rng x = expr...; must
        // reference trialRng/fork/mix somewhere in the initializer.
        if (i + 2 >= code.size() ||
            code[i + 1].kind != TokKind::Identifier)
            return;
        std::size_t initBegin = 0, initEnd = 0;
        if (code[i + 2].isPunct("(")) {
            initBegin = i + 2;
            initEnd = detail::matchParen(code, i + 2);
        } else if (code[i + 2].isPunct("=")) {
            initBegin = i + 3;
            initEnd = initBegin;
            while (initEnd < code.size() &&
                   !code[initEnd].isPunct(";"))
                ++initEnd;
        } else {
            return;
        }
        if (mentionsDerivedStream(code, initBegin, initEnd + 1))
            return;
        Finding f;
        f.rule = name();
        f.path = file.path;
        f.line = code[i].line;
        f.col = code[i].col;
        f.message =
            "trial machinery seeds an Rng ad hoc — per-trial streams "
            "must come from the counter-based trialRng(seed, index)";
        f.hint = "use trialRng(seed, index) (or fork()/Rng::mix of "
                 "an existing stream) so any trial replays "
                 "standalone and --jobs cannot reorder draws";
        out.push_back(std::move(f));
    }
};

} // namespace

const Rule &
rngDisciplineRule()
{
    static const RngDisciplineRule rule;
    return rule;
}

} // namespace mparch::analysis

/**
 * @file
 * Internal declarations shared by the rule implementation files.
 *
 * Each rules_*.cc defines one Rule subclass and exposes it through a
 * singleton accessor; rules.cc assembles the registry in catalogue
 * order. Token-walking helpers used by several rules live here too.
 */

#ifndef MPARCH_ANALYSIS_RULES_HH
#define MPARCH_ANALYSIS_RULES_HH

#include <cstddef>

#include "analysis/lint.hh"

namespace mparch::analysis {

const Rule &bannedApiRule();
const Rule &rngDisciplineRule();
const Rule &orderedSerializationRule();
const Rule &hookCoverageRule();
const Rule &includeHygieneRule();
const Rule &hostMathRule();
const Rule &unreferencedRule();

namespace detail {

/** True if code[i] is qualified by a preceding `std::` or `::`. */
inline bool
stdQualified(const std::vector<Token> &code, std::size_t i)
{
    if (i < 1 || !code[i - 1].isPunct("::"))
        return false;
    return i < 2 || code[i - 2].isIdent("std") ||
           !(code[i - 2].kind == TokKind::Identifier);
}

/** True if code[i] is a member access (`.name` / `->name`). */
inline bool
memberAccess(const std::vector<Token> &code, std::size_t i)
{
    return i >= 1 &&
           (code[i - 1].isPunct(".") || code[i - 1].isPunct("->"));
}

/** Index of the `)` or `}` matching the `(` or `{` at @p open;
 *  npos-like code.size() if unbalanced. */
inline std::size_t
matchClose(const std::vector<Token> &code, std::size_t open)
{
    const bool brace = code[open].isPunct("{");
    const char *opener = brace ? "{" : "(";
    const char *closer = brace ? "}" : ")";
    int depth = 0;
    for (std::size_t j = open; j < code.size(); ++j) {
        if (code[j].isPunct(opener))
            ++depth;
        else if (code[j].isPunct(closer) && --depth == 0)
            return j;
    }
    return code.size();
}

/** Start of the declaration/signature that owns the brace at
 *  @p open: the token after the previous `;`, `{` or `}`. */
inline std::size_t
signatureBegin(const std::vector<Token> &code, std::size_t open)
{
    std::size_t begin = open;
    while (begin > 0) {
        const Token &t = code[begin - 1];
        if (t.isPunct(";") || t.isPunct("{") || t.isPunct("}"))
            break;
        --begin;
    }
    return begin;
}

} // namespace detail

} // namespace mparch::analysis

#endif // MPARCH_ANALYSIS_RULES_HH

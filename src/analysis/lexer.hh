/**
 * @file
 * Lightweight C++ lexer for the project linter.
 *
 * Produces a flat token stream — identifiers, numbers, string/char
 * literals, punctuation, comments and preprocessor directives — with
 * 1-based line/column positions. It is *not* a conforming phase-3
 * translator: no trigraphs, no macro expansion, no keyword table.
 * That is deliberate: lint rules match patterns in the spelling of
 * the source, and a full frontend would make every rule hostage to
 * the include graph. What the lexer does get right is the part that
 * matters for precision: comments and string literals (including raw
 * strings) are single tokens, so an identifier like `std::rand`
 * inside a doc comment or a test fixture string can never trip a
 * rule.
 */

#ifndef MPARCH_ANALYSIS_LEXER_HH
#define MPARCH_ANALYSIS_LEXER_HH

#include <string>
#include <vector>

namespace mparch::analysis {

enum class TokKind
{
    Identifier,  ///< identifiers and keywords (no keyword table)
    Number,      ///< pp-number: integers, floats, hex, separators
    String,      ///< string literal, spelling incl. quotes/prefix
    CharLit,     ///< character literal, spelling incl. quotes
    Punct,       ///< operator / punctuator, maximal munch
    Comment,     ///< // or block comment, full spelling
    Directive,   ///< preprocessor directive name ("include", "ifndef")
    HeaderName,  ///< <...> after #include, text without the brackets
};

struct Token
{
    TokKind kind = TokKind::Punct;
    std::string text;
    unsigned line = 1;  ///< 1-based source line
    unsigned col = 1;   ///< 1-based source column
    bool inDirective = false;  ///< on a preprocessor line (splices too)

    bool
    is(TokKind k, const char *spelling) const
    {
        return kind == k && text == spelling;
    }

    bool isIdent(const char *name) const
    {
        return is(TokKind::Identifier, name);
    }

    bool isPunct(const char *spelling) const
    {
        return is(TokKind::Punct, spelling);
    }
};

/**
 * Lex a whole translation unit.
 *
 * Never fails: unterminated literals and stray characters degrade to
 * best-effort tokens so rules can still run over malformed fixtures.
 * Backslash-newline splices are treated as whitespace.
 */
std::vector<Token> lex(const std::string &source);

} // namespace mparch::analysis

#endif // MPARCH_ANALYSIS_LEXER_HH

#include "analysis/lexer.hh"

#include <cctype>
#include <cstddef>

namespace mparch::analysis {

namespace {

/** Cursor over the source with line/column tracking and splice
 *  (backslash-newline) removal. */
class Cursor
{
  public:
    explicit Cursor(const std::string &src) : src_(src) {}

    bool atEnd() const { return pos_ >= src_.size(); }

    /** Current character, skipping over backslash-newline splices. */
    char
    peek() const
    {
        std::size_t p = pos_;
        while (p + 1 < src_.size() && src_[p] == '\\' &&
               (src_[p + 1] == '\n' ||
                (src_[p + 1] == '\r' && p + 2 < src_.size() &&
                 src_[p + 2] == '\n')))
            p += src_[p + 1] == '\r' ? 3 : 2;
        return p < src_.size() ? src_[p] : '\0';
    }

    char
    peek2() const
    {
        Cursor c = *this;
        c.advance();
        return c.peek();
    }

    void
    advance()
    {
        // Consume any splice(s) sitting at the cursor first.
        while (pos_ + 1 < src_.size() && src_[pos_] == '\\' &&
               (src_[pos_ + 1] == '\n' ||
                (src_[pos_ + 1] == '\r' && pos_ + 2 < src_.size() &&
                 src_[pos_ + 2] == '\n'))) {
            pos_ += src_[pos_ + 1] == '\r' ? 3 : 2;
            ++line_;
            col_ = 1;
        }
        if (pos_ >= src_.size())
            return;
        if (src_[pos_] == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        ++pos_;
    }

    unsigned line() const { return line_; }
    unsigned col() const { return col_; }

    /** Raw (splice-blind) slice access for raw-string bodies. */
    const std::string &raw() const { return src_; }
    std::size_t rawPos() const { return pos_; }

  private:
    const std::string &src_;
    std::size_t pos_ = 0;
    unsigned line_ = 1;
    unsigned col_ = 1;
};

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentCont(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Multi-character punctuators, longest first per leading char. */
const char *const kPuncts[] = {
    "<<=", ">>=", "...", "->*", "<=>",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "##",
};

class Lexer
{
  public:
    explicit Lexer(const std::string &src) : cur_(src) {}

    std::vector<Token>
    run()
    {
        while (!cur_.atEnd()) {
            const char c = cur_.peek();
            if (c == '\n') {
                atLineStart_ = true;
                expectHeaderName_ = false;
                inDirective_ = false;
                cur_.advance();
                continue;
            }
            if (c == ' ' || c == '\t' || c == '\r' || c == '\v' ||
                c == '\f' || c == '\0') {
                cur_.advance();
                continue;
            }
            if (c == '/' && cur_.peek2() == '/') {
                lexLineComment();
                continue;
            }
            if (c == '/' && cur_.peek2() == '*') {
                lexBlockComment();
                continue;
            }
            if (c == '#' && atLineStart_) {
                lexDirective();
                continue;
            }
            atLineStart_ = false;
            if (c == '<' && expectHeaderName_) {
                lexHeaderName();
                continue;
            }
            if (isIdentStart(c)) {
                lexIdentifierOrLiteral();
                continue;
            }
            if (std::isdigit(static_cast<unsigned char>(c)) ||
                (c == '.' &&
                 std::isdigit(static_cast<unsigned char>(cur_.peek2())))) {
                lexNumber();
                continue;
            }
            if (c == '"') {
                lexString(/*raw=*/false);
                continue;
            }
            if (c == '\'') {
                lexCharLit();
                continue;
            }
            lexPunct();
        }
        return std::move(out_);
    }

  private:
    Token
    begin(TokKind kind)
    {
        Token t;
        t.kind = kind;
        t.line = cur_.line();
        t.col = cur_.col();
        return t;
    }

    void
    push(Token t)
    {
        // A header name is only expected immediately after #include.
        if (!(t.kind == TokKind::Directive && t.text == "include"))
            expectHeaderName_ = false;
        inDirective_ = inDirective_ || t.kind == TokKind::Directive;
        t.inDirective = inDirective_;
        out_.push_back(std::move(t));
    }

    void
    lexLineComment()
    {
        Token t = begin(TokKind::Comment);
        while (!cur_.atEnd() && cur_.peek() != '\n') {
            t.text += cur_.peek();
            cur_.advance();
        }
        push(std::move(t));
    }

    void
    lexBlockComment()
    {
        Token t = begin(TokKind::Comment);
        t.text += cur_.peek(); cur_.advance();  // '/'
        t.text += cur_.peek(); cur_.advance();  // '*'
        while (!cur_.atEnd()) {
            const char c = cur_.peek();
            if (c == '*' && cur_.peek2() == '/') {
                t.text += "*/";
                cur_.advance();
                cur_.advance();
                break;
            }
            t.text += c;
            cur_.advance();
        }
        push(std::move(t));
    }

    void
    lexDirective()
    {
        Token t = begin(TokKind::Directive);
        cur_.advance();  // '#'
        while (!cur_.atEnd() &&
               (cur_.peek() == ' ' || cur_.peek() == '\t'))
            cur_.advance();
        while (!cur_.atEnd() && isIdentCont(cur_.peek())) {
            t.text += cur_.peek();
            cur_.advance();
        }
        atLineStart_ = false;
        const bool isInclude = t.text == "include";
        push(std::move(t));
        expectHeaderName_ = isInclude;
    }

    void
    lexHeaderName()
    {
        Token t = begin(TokKind::HeaderName);
        cur_.advance();  // '<'
        while (!cur_.atEnd() && cur_.peek() != '>' &&
               cur_.peek() != '\n') {
            t.text += cur_.peek();
            cur_.advance();
        }
        if (!cur_.atEnd() && cur_.peek() == '>')
            cur_.advance();
        push(std::move(t));
    }

    void
    lexIdentifierOrLiteral()
    {
        Token t = begin(TokKind::Identifier);
        while (!cur_.atEnd() && isIdentCont(cur_.peek())) {
            t.text += cur_.peek();
            cur_.advance();
        }
        // Literal prefixes: R"..", u8"..", L'x', etc.
        if (!cur_.atEnd() && cur_.peek() == '"' && isStringPrefix(t.text)) {
            const bool raw = t.text.back() == 'R';
            Token lit = lexStringAt(t.line, t.col, raw, t.text);
            push(std::move(lit));
            return;
        }
        if (!cur_.atEnd() && cur_.peek() == '\'' &&
            (t.text == "u" || t.text == "U" || t.text == "L" ||
             t.text == "u8")) {
            Token lit = lexCharAt(t.line, t.col, t.text);
            push(std::move(lit));
            return;
        }
        push(std::move(t));
    }

    static bool
    isStringPrefix(const std::string &s)
    {
        return s == "R" || s == "L" || s == "u" || s == "U" ||
               s == "u8" || s == "LR" || s == "uR" || s == "UR" ||
               s == "u8R";
    }

    void
    lexString(bool raw)
    {
        Token t = lexStringAt(cur_.line(), cur_.col(), raw, "");
        push(std::move(t));
    }

    Token
    lexStringAt(unsigned line, unsigned col, bool raw, std::string prefix)
    {
        Token t;
        t.kind = TokKind::String;
        t.line = line;
        t.col = col;
        t.text = std::move(prefix);
        t.text += cur_.peek();
        cur_.advance();  // opening quote
        if (raw) {
            // R"delim( ... )delim" — no escapes, no splices inside.
            std::string delim;
            while (!cur_.atEnd() && cur_.peek() != '(') {
                delim += cur_.peek();
                t.text += cur_.peek();
                cur_.advance();
            }
            if (!cur_.atEnd()) {
                t.text += cur_.peek();
                cur_.advance();  // '('
            }
            const std::string close = ")" + delim + "\"";
            std::string tail;
            while (!cur_.atEnd()) {
                tail += cur_.peek();
                t.text += cur_.peek();
                cur_.advance();
                if (tail.size() >= close.size() &&
                    tail.compare(tail.size() - close.size(),
                                 close.size(), close) == 0)
                    break;
            }
            return t;
        }
        while (!cur_.atEnd()) {
            const char c = cur_.peek();
            if (c == '\\') {
                t.text += c;
                cur_.advance();
                if (!cur_.atEnd()) {
                    t.text += cur_.peek();
                    cur_.advance();
                }
                continue;
            }
            if (c == '\n')
                break;  // unterminated; degrade gracefully
            t.text += c;
            cur_.advance();
            if (c == '"')
                break;
        }
        return t;
    }

    void
    lexCharLit()
    {
        Token t = lexCharAt(cur_.line(), cur_.col(), "");
        push(std::move(t));
    }

    Token
    lexCharAt(unsigned line, unsigned col, std::string prefix)
    {
        Token t;
        t.kind = TokKind::CharLit;
        t.line = line;
        t.col = col;
        t.text = std::move(prefix);
        t.text += cur_.peek();
        cur_.advance();  // opening quote
        while (!cur_.atEnd()) {
            const char c = cur_.peek();
            if (c == '\\') {
                t.text += c;
                cur_.advance();
                if (!cur_.atEnd()) {
                    t.text += cur_.peek();
                    cur_.advance();
                }
                continue;
            }
            if (c == '\n')
                break;
            t.text += c;
            cur_.advance();
            if (c == '\'')
                break;
        }
        return t;
    }

    void
    lexNumber()
    {
        Token t = begin(TokKind::Number);
        // pp-number: digits, idents, dots, digit separators, and
        // exponent signs after e/E/p/P.
        while (!cur_.atEnd()) {
            const char c = cur_.peek();
            if (isIdentCont(c) || c == '.' || c == '\'') {
                t.text += c;
                cur_.advance();
                if ((c == 'e' || c == 'E' || c == 'p' || c == 'P') &&
                    !cur_.atEnd() &&
                    (cur_.peek() == '+' || cur_.peek() == '-')) {
                    t.text += cur_.peek();
                    cur_.advance();
                }
                continue;
            }
            break;
        }
        push(std::move(t));
    }

    void
    lexPunct()
    {
        Token t = begin(TokKind::Punct);
        const char c = cur_.peek();
        for (const char *p : kPuncts) {
            if (p[0] != c)
                continue;
            bool match = true;
            Cursor probe = cur_;
            for (const char *q = p; *q; ++q) {
                if (probe.atEnd() || probe.peek() != *q) {
                    match = false;
                    break;
                }
                probe.advance();
            }
            if (match) {
                t.text = p;
                while (t.text.size() > 0 && cur_.rawPos() < probe.rawPos())
                    cur_.advance();
                push(std::move(t));
                return;
            }
        }
        t.text += c;
        cur_.advance();
        push(std::move(t));
    }

    Cursor cur_;
    std::vector<Token> out_;
    bool atLineStart_ = true;
    bool expectHeaderName_ = false;
    bool inDirective_ = false;
};

} // namespace

std::vector<Token>
lex(const std::string &source)
{
    return Lexer(source).run();
}

} // namespace mparch::analysis

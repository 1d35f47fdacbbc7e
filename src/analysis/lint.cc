#include "analysis/lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

namespace mparch::analysis {

namespace {

std::string
normalizeSlashes(std::string path)
{
    std::replace(path.begin(), path.end(), '\\', '/');
    return path;
}

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/**
 * Classify every brace in the code stream and record function-body
 * ranges. Heuristic but calibrated against this codebase's style;
 * rules only depend on the Namespace/Type/Function distinction.
 */
void
analyzeStructure(SourceFile &file)
{
    const auto &code = file.code;
    file.scope.assign(code.size(), ScopeKind::Namespace);
    std::vector<std::pair<ScopeKind, std::size_t>> stack;

    auto classify = [&](std::size_t i) -> ScopeKind {
        const ScopeKind outer =
            stack.empty() ? ScopeKind::Namespace : stack.back().first;
        // Walk back to the previous statement boundary.
        std::size_t begin = i;
        while (begin > 0) {
            const Token &t = code[begin - 1];
            if (t.isPunct(";") || t.isPunct("{") || t.isPunct("}"))
                break;
            --begin;
        }
        bool sawClassKey = false;
        bool sawNamespace = false;
        bool sawEquals = false;
        int parenDepth = 0;
        for (std::size_t j = begin; j < i; ++j) {
            const Token &t = code[j];
            if (t.isPunct("("))
                ++parenDepth;
            else if (t.isPunct(")"))
                --parenDepth;
            else if (parenDepth == 0 &&
                     (t.isIdent("class") || t.isIdent("struct") ||
                      t.isIdent("union") || t.isIdent("enum")))
                sawClassKey = true;
            else if (parenDepth == 0 && t.isIdent("namespace"))
                sawNamespace = true;
            else if (parenDepth == 0 && t.isPunct("="))
                sawEquals = true;
        }
        if (sawNamespace)
            return ScopeKind::Namespace;
        if (i > 0) {
            const Token &prev = code[i - 1];
            if (prev.kind == TokKind::String && begin + 1 == i)
                return ScopeKind::Namespace;  // extern "C"
        }
        if (sawClassKey && !sawEquals)
            return ScopeKind::Type;
        if (outer == ScopeKind::Function || outer == ScopeKind::Block) {
            // Inside a function: distinguish nested statement blocks
            // and lambda/local-struct bodies from brace initializers.
            if (i == 0)
                return ScopeKind::Block;
            const Token &prev = code[i - 1];
            if (prev.isPunct("{") || prev.isPunct("}") ||
                prev.isPunct(";") || prev.isIdent("else") ||
                prev.isIdent("do") || prev.isIdent("try"))
                return ScopeKind::Block;
            if (prev.isPunct(")")) {
                // `) {` is a lambda body unless the paren group is a
                // control-flow head (if/for/while/switch/catch).
                int depth = 0;
                std::size_t j = i - 1;
                for (; j > 0; --j) {
                    if (code[j].isPunct(")"))
                        ++depth;
                    else if (code[j].isPunct("(") && --depth == 0)
                        break;
                }
                if (j > 0) {
                    const Token &head = code[j - 1];
                    if (head.isIdent("if") || head.isIdent("for") ||
                        head.isIdent("while") ||
                        head.isIdent("switch") ||
                        head.isIdent("catch"))
                        return ScopeKind::Block;
                }
                return ScopeKind::Function;  // lambda / local fn
            }
            if (prev.isIdent("noexcept") || prev.isIdent("mutable") ||
                prev.isPunct("]"))
                return ScopeKind::Function;  // lambda
            return ScopeKind::Init;
        }
        // Namespace or type scope: a `)`-trailer means a function
        // body (possibly through const/noexcept/override/-> type).
        for (std::size_t j = i; j > begin; --j) {
            const Token &t = code[j - 1];
            if (t.isPunct(")"))
                return ScopeKind::Function;
            if (t.kind == TokKind::Identifier &&
                (t.text == "const" || t.text == "noexcept" ||
                 t.text == "override" || t.text == "final" ||
                 t.text == "try"))
                continue;
            if (t.isPunct("->") || t.kind == TokKind::Identifier ||
                t.isPunct("::") || t.isPunct("<") || t.isPunct(">") ||
                t.isPunct("&") || t.isPunct("*") || t.isPunct(":") ||
                t.isPunct(",") || t.kind == TokKind::Number)
                continue;
            break;
        }
        if (sawEquals)
            return ScopeKind::Init;
        return ScopeKind::Type;  // brace-init of a member, etc.
    };

    for (std::size_t i = 0; i < code.size(); ++i) {
        file.scope[i] =
            stack.empty() ? ScopeKind::Namespace : stack.back().first;
        if (code[i].isPunct("{")) {
            const ScopeKind kind = classify(i);
            stack.emplace_back(kind, i);
        } else if (code[i].isPunct("}")) {
            if (!stack.empty()) {
                if (stack.back().first == ScopeKind::Function)
                    file.functions.emplace_back(stack.back().second, i);
                stack.pop_back();
            }
        }
    }
}

void
finishSource(SourceFile &file)
{
    file.tokens = lex(file.content);
    file.code.clear();
    for (const Token &t : file.tokens)
        if (t.kind != TokKind::Comment)
            file.code.push_back(t);
    analyzeStructure(file);
}

/** One parsed `mparch-lint:` comment. */
struct Suppression
{
    unsigned line = 0;
    bool aloneOnLine = false;
    std::string rule;
    std::string reason;
};

std::string
trimCopy(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    std::size_t e = s.find_last_not_of(" \t.");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

/**
 * Parse suppressions out of comment tokens. Malformed ones (no
 * allow() clause, unknown rule, missing reason) become findings of
 * the pseudo-rule "lint-suppression".
 */
std::vector<Suppression>
collectSuppressions(const SourceFile &file, std::vector<Finding> &out)
{
    std::vector<Suppression> sups;
    static const std::string kTag = "mparch-lint:";
    for (const Token &t : file.tokens) {
        if (t.kind != TokKind::Comment)
            continue;
        const std::size_t tag = t.text.find(kTag);
        if (tag == std::string::npos)
            continue;
        // Only a tag that opens the comment (after decoration
        // characters) is a suppression attempt; prose that merely
        // mentions the syntax mid-comment is ignored.
        const bool anchored = std::all_of(
            t.text.begin(),
            t.text.begin() + static_cast<std::ptrdiff_t>(tag),
            [](char c) {
                return c == '/' || c == '*' || c == '!' ||
                       c == '<' || c == ' ' || c == '\t' ||
                       c == '\n' || c == '\r';
            });
        if (!anchored)
            continue;
        auto bad = [&](const std::string &why) {
            Finding f;
            f.rule = suppressionRuleName();
            f.path = file.path;
            f.line = t.line;
            f.col = t.col;
            f.message = why;
            f.hint = "write `// mparch-lint: allow(<rule>): <reason>` "
                     "with a non-empty reason";
            out.push_back(std::move(f));
        };
        std::string rest = t.text.substr(tag + kTag.size());
        // Strip a block-comment terminator if present.
        if (const std::size_t end = rest.find("*/");
            end != std::string::npos)
            rest = rest.substr(0, end);
        const std::size_t allow = rest.find("allow(");
        if (allow == std::string::npos) {
            bad("mparch-lint comment without an allow(<rule>) clause");
            continue;
        }
        const std::size_t open = allow + 5;
        const std::size_t close = rest.find(')', open);
        if (close == std::string::npos) {
            bad("unterminated allow( clause");
            continue;
        }
        Suppression s;
        s.line = t.line;
        s.rule = trimCopy(rest.substr(open + 1, close - open - 1));
        std::string reason = rest.substr(close + 1);
        if (!reason.empty() && (reason[0] == ':' || reason[0] == '-'))
            reason = reason.substr(reason.find_first_not_of(":- "));
        s.reason = trimCopy(reason);
        if (s.rule.empty() ||
            (findRule(s.rule) == nullptr &&
             s.rule != suppressionRuleName())) {
            bad("allow() names unknown rule '" + s.rule + "'");
            continue;
        }
        if (s.reason.empty()) {
            bad("allow(" + s.rule +
                ") without a reason — suppressions must be justified");
            continue;
        }
        s.aloneOnLine = std::none_of(
            file.code.begin(), file.code.end(),
            [&](const Token &c) { return c.line == t.line; });
        sups.push_back(std::move(s));
    }
    return sups;
}

void
applySuppressions(const std::vector<Suppression> &sups,
                  std::vector<Finding> &findings)
{
    for (Finding &f : findings) {
        if (f.rule == suppressionRuleName())
            continue;  // meta-findings cannot be waived inline
        for (const Suppression &s : sups) {
            if (s.rule != f.rule)
                continue;
            const bool sameLine = s.line == f.line;
            const bool lineAbove =
                s.aloneOnLine && s.line + 1 == f.line;
            if (sameLine || lineAbove) {
                f.suppressed = true;
                f.suppressReason = s.reason;
                break;
            }
        }
    }
}

} // namespace

bool
SourceFile::isHeader() const
{
    return hasSuffix(path, ".hh") || hasSuffix(path, ".h") ||
           hasSuffix(path, ".hpp");
}

bool
SourceFile::pathHas(const std::string &part) const
{
    const std::string needle = "/" + part + "/";
    const std::string padded = "/" + path;
    return padded.find(needle) != std::string::npos;
}

std::string
SourceFile::stem() const
{
    const std::size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
}

std::vector<std::string>
SourceFile::quotedIncludes() const
{
    std::vector<std::string> result;
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind == TokKind::Directive &&
            code[i].text == "include" &&
            code[i + 1].kind == TokKind::String) {
            const std::string &spelling = code[i + 1].text;
            if (spelling.size() >= 2)
                result.push_back(
                    spelling.substr(1, spelling.size() - 2));
        }
    }
    return result;
}

bool
SourceFile::includes(const std::string &header) const
{
    const auto list = quotedIncludes();
    return std::find(list.begin(), list.end(), header) != list.end();
}

SourceFile
sourceFromString(const std::string &path, const std::string &content)
{
    SourceFile file;
    file.path = normalizeSlashes(path);
    file.content = content;
    finishSource(file);
    return file;
}

bool
loadSource(const std::string &path, SourceFile &out, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = sourceFromString(path, buffer.str());
    return true;
}

std::size_t
LintReport::active() const
{
    return static_cast<std::size_t>(
        std::count_if(findings.begin(), findings.end(),
                      [](const Finding &f) { return !f.suppressed; }));
}

std::size_t
LintReport::suppressedCount() const
{
    return findings.size() - active();
}

void
lintFiles(const std::vector<SourceFile> &files,
          const LintOptions &options, LintReport &report)
{
    std::vector<const Rule *> rules;
    for (const Rule *rule : allRules())
        if (options.onlyRules.empty() ||
            std::find(options.onlyRules.begin(),
                      options.onlyRules.end(),
                      rule->name()) != options.onlyRules.end())
            rules.push_back(rule);

    std::vector<std::vector<Finding>> found(files.size());
    for (std::size_t i = 0; i < files.size(); ++i)
        for (const Rule *rule : rules)
            rule->check(files[i], found[i]);
    std::vector<Finding> treeFound;
    for (const Rule *rule : rules)
        rule->checkTree(files, treeFound);
    for (Finding &f : treeFound)
        for (std::size_t i = 0; i < files.size(); ++i)
            if (files[i].path == f.path) {
                found[i].push_back(std::move(f));
                break;
            }

    for (std::size_t i = 0; i < files.size(); ++i) {
        std::vector<Finding> &fileFound = found[i];
        applySuppressions(collectSuppressions(files[i], fileFound),
                          fileFound);
        std::sort(fileFound.begin(), fileFound.end(),
                  [](const Finding &a, const Finding &b) {
                      if (a.line != b.line)
                          return a.line < b.line;
                      if (a.col != b.col)
                          return a.col < b.col;
                      return a.rule < b.rule;
                  });
        ++report.filesScanned;
        for (Finding &f : fileFound)
            report.findings.push_back(std::move(f));
    }
}

namespace {

bool
lintableExtension(const std::string &path)
{
    return hasSuffix(path, ".cc") || hasSuffix(path, ".cpp") ||
           hasSuffix(path, ".hh") || hasSuffix(path, ".h") ||
           hasSuffix(path, ".hpp");
}

bool
skipDirectory(const std::string &name)
{
    // Fixture corpora and build trees never join a parent sweep.
    return name == "data" || name.rfind("build", 0) == 0 ||
           name.rfind(".", 0) == 0;
}

void
collectFiles(const std::filesystem::path &dir,
             std::vector<std::string> &files,
             std::vector<std::string> &errors)
{
    std::error_code ec;
    std::vector<std::filesystem::path> entries;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         it != end && !ec; it.increment(ec))
        entries.push_back(it->path());
    if (ec) {
        errors.push_back("cannot read directory " + dir.string() +
                         ": " + ec.message());
        return;
    }
    // Deterministic order regardless of readdir order.
    std::sort(entries.begin(), entries.end());
    for (const auto &entry : entries) {
        std::error_code typeEc;
        if (std::filesystem::is_directory(entry, typeEc)) {
            if (!skipDirectory(entry.filename().string()))
                collectFiles(entry, files, errors);
        } else if (lintableExtension(entry.string())) {
            files.push_back(entry.string());
        }
    }
}

} // namespace

LintReport
lintPaths(const std::vector<std::string> &paths,
          const LintOptions &options)
{
    LintReport report;
    std::vector<std::string> files;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (std::filesystem::is_directory(p, ec)) {
            collectFiles(p, files, report.errors);
        } else if (std::filesystem::exists(p, ec)) {
            files.push_back(p);
        } else {
            report.errors.push_back("no such file or directory: " + p);
        }
    }
    std::vector<SourceFile> sources;
    for (const std::string &path : files) {
        SourceFile file;
        std::string error;
        if (!loadSource(path, file, &error)) {
            report.errors.push_back(error);
            continue;
        }
        sources.push_back(std::move(file));
    }
    lintFiles(sources, options, report);
    return report;
}

void
printReport(const LintReport &report, std::ostream &os,
            bool showSuppressed)
{
    for (const std::string &e : report.errors)
        os << "error: " << e << "\n";
    for (const Finding &f : report.findings) {
        if (f.suppressed && !showSuppressed)
            continue;
        os << f.path << ":" << f.line << ":" << f.col << ": ["
           << f.rule << "] " << f.message;
        if (f.suppressed)
            os << " (suppressed: " << f.suppressReason << ")";
        os << "\n";
        if (!f.hint.empty() && !f.suppressed)
            os << "    hint: " << f.hint << "\n";
    }
    os << report.filesScanned << " files scanned, " << report.active()
       << " findings";
    if (report.suppressedCount() > 0)
        os << " (+" << report.suppressedCount() << " suppressed)";
    os << "\n";
}

} // namespace mparch::analysis

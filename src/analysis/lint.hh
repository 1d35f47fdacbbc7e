/**
 * @file
 * Project-rule lint engine: files, findings, rules, suppressions.
 *
 * Everything this reproduction claims — byte-identical journal
 * resume, --jobs-invariant campaign results, oracle-verified
 * softfloat — rests on invariants that are easy to break with one
 * innocent-looking line: an ad-hoc std::mt19937, an unordered_map
 * iterated into a journal, a wall-clock call in a trial path. The
 * linter turns those project rules into compile-time facts: a rule
 * registry sweeps every source tree and any unsuppressed finding
 * fails the build's `lint_all` test.
 *
 * Suppression is explicit and audited: a finding can only be waived
 * by an inline `// mparch-lint: allow(<rule>): <reason>` comment on
 * the same line (or alone on the line above), and the reason string
 * is mandatory — a bare allow() is itself a finding.
 */

#ifndef MPARCH_ANALYSIS_LINT_HH
#define MPARCH_ANALYSIS_LINT_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/lexer.hh"

namespace mparch::analysis {

/** What kind of scope a brace opens (structural pre-pass result). */
enum class ScopeKind
{
    Namespace,  ///< namespace body (also extern "C" and file scope)
    Type,       ///< class / struct / union / enum body
    Function,   ///< function, constructor or lambda body
    Init,       ///< braced initializer
    Block,      ///< plain compound statement inside a function
};

/**
 * A lexed source file plus the derived context rules match against.
 *
 * `code` is the comment-stripped token stream (what most rules walk);
 * `tokens` keeps comments for suppression parsing. `scope` parallels
 * `code`: the innermost enclosing scope of each token. Paths are
 * normalized to forward slashes; `pathHas(part)` answers "is this
 * file under <part>/" for tree-scoped rules, so fixture files under
 * tests/data/lint/src/fp/ exercise the same predicates as real
 * src/fp/ sources.
 */
struct SourceFile
{
    std::string path;                 ///< as given, slash-normalized
    std::string content;
    std::vector<Token> tokens;        ///< full stream incl. comments
    std::vector<Token> code;          ///< comments stripped
    std::vector<ScopeKind> scope;     ///< per `code` token
    std::vector<std::pair<std::size_t, std::size_t>> functions;
        ///< [open,close] brace index ranges into `code`

    bool isHeader() const;            ///< .hh / .h / .hpp

    /** True if a path component sequence appears, e.g. "src/fp". */
    bool pathHas(const std::string &part) const;

    /** Basename without extension ("arith" for src/fp/arith.cc). */
    std::string stem() const;

    /** Quoted include spellings in file order (text without quotes). */
    std::vector<std::string> quotedIncludes() const;

    /** True if any quoted include equals @p header. */
    bool includes(const std::string &header) const;
};

/** Build a SourceFile from an in-memory buffer (tests, fixtures). */
SourceFile sourceFromString(const std::string &path,
                            const std::string &content);

/** Load and lex a file from disk; empty content + error on failure. */
bool loadSource(const std::string &path, SourceFile &out,
                std::string *error);

/** One rule violation (or suppressed would-be violation). */
struct Finding
{
    std::string rule;
    std::string path;
    unsigned line = 0;
    unsigned col = 0;
    std::string message;
    std::string hint;            ///< fix-it guidance, may be empty
    bool suppressed = false;
    std::string suppressReason;  ///< non-empty iff suppressed
};

/** A lint rule: a named predicate over one SourceFile. */
class Rule
{
  public:
    virtual ~Rule() = default;

    virtual const char *name() const = 0;

    /** One-line description for --list-rules and the rule catalogue. */
    virtual const char *summary() const = 0;

    virtual void check(const SourceFile &file,
                       std::vector<Finding> &out) const = 0;
};

/** All registered rules, in stable (documentation) order. */
const std::vector<const Rule *> &allRules();

/** Look up a rule by name; nullptr if unknown. Recognises the
 *  pseudo-rule "lint-suppression" (malformed allow() comments). */
const Rule *findRule(const std::string &name);

/** Name of the pseudo-rule covering malformed suppressions. */
inline const char *suppressionRuleName() { return "lint-suppression"; }

struct LintOptions
{
    /** Restrict to these rule names; empty = all rules. */
    std::vector<std::string> onlyRules;
};

struct LintReport
{
    std::vector<Finding> findings;     ///< suppressed entries included
    std::size_t filesScanned = 0;
    std::vector<std::string> errors;   ///< I/O or traversal failures

    /** Unsuppressed finding count — the exit-status driver. */
    std::size_t active() const;
    std::size_t suppressedCount() const;
};

/** Run rules over one already-lexed file, honouring suppressions. */
void lintFile(const SourceFile &file, const LintOptions &options,
              LintReport &report);

/**
 * Lint files and directory trees.
 *
 * Directories are walked recursively for .cc/.hh/.cpp/.h/.hpp files;
 * subdirectories named "data" and "build*" are skipped so test
 * fixtures and build output never join a sweep of their parent tree
 * (point the walker *at* a data directory to lint fixtures).
 */
LintReport lintPaths(const std::vector<std::string> &paths,
                     const LintOptions &options);

/** Write the machine-readable report (common/json writer). */
void writeJsonReport(const LintReport &report, std::ostream &os);

/** Render findings gcc-style ("path:line:col: [rule] message"). */
void printReport(const LintReport &report, std::ostream &os,
                 bool showSuppressed);

} // namespace mparch::analysis

#endif // MPARCH_ANALYSIS_LINT_HH

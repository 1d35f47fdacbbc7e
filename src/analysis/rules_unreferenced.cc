/**
 * @file
 * unreferenced: no library surface that no program uses.
 *
 * Code that nothing runs still costs: it is read, kept compiling,
 * tested and documented, and it hides which parts of the library the
 * results rest on. This tree pass collects every function, member
 * function and type that a src/ header declares and flags each one
 * that nothing references outside its own declaration and
 * definition. Only src/, examples/ and tools/ files count as users;
 * a test that calls an otherwise dead symbol keeps nothing alive.
 *
 * Matching goes by identifier token, not by C++ name lookup, so all
 * declarations of one spelling are one symbol: an override of a
 * used virtual is used, and where two names collide the rule misses
 * the dead one rather than flag the live one. The declaration and
 * definition of a symbol are the statements that declare it, with
 * their bodies; a type's definition also takes in its out-of-line
 * member definitions (`Type::member(...) {...}`).
 *
 * A run that lacks any of src/, examples/ and tools/ would miss
 * users, so the rule reports only on a run that spans all three.
 */

#include "analysis/rules.hh"

#include <algorithm>
#include <map>
#include <set>

namespace mparch::analysis {

namespace {

/**
 * The innermost of src/, examples/, tools/ and tests/ that a path
 * lies in ("" for none), so fixtures under tests/data/lint/src/ are
 * library files of their own corpus.
 */
std::string
treeOf(const std::string &path)
{
    static const std::set<std::string> kTrees = {"src", "examples",
                                                 "tools", "tests"};
    std::string tree;
    std::size_t begin = 0;
    for (std::size_t slash = path.find('/'); slash != std::string::npos;
         slash = path.find('/', begin)) {
        const std::string part = path.substr(begin, slash - begin);
        if (kTrees.count(part) != 0)
            tree = part;
        begin = slash + 1;
    }
    return tree;
}

/** One declaration or definition of a function or type. */
struct Decl
{
    std::string name;  ///< declared symbol; empty for operators etc.
    bool isType = false;
    std::size_t begin = 0, end = 0;  ///< [begin,end] `code` range
    std::vector<std::string> owners;  ///< symbols the range belongs to
};

/** Names qualifying the declarator that ends just before @p name
 *  (`Outer` and `Inner` in `Outer<P>::Inner::name`). */
std::vector<std::string>
qualifiers(const std::vector<Token> &code, std::size_t begin,
           std::size_t name)
{
    std::vector<std::string> names;
    std::size_t j = name;
    while (j >= begin + 2 && code[j - 1].isPunct("::")) {
        std::size_t k = j - 2;
        if (code[k].isPunct(">")) {
            int depth = 0;
            for (; k > begin; --k) {
                if (code[k].isPunct(">"))
                    ++depth;
                else if (code[k].isPunct("<") && --depth == 0)
                    break;
            }
            if (k == begin)
                break;
            --k;
        }
        if (code[k].kind != TokKind::Identifier)
            break;
        names.push_back(code[k].text);
        j = k;
    }
    return names;
}

bool
typeLike(const Token &t)
{
    static const std::set<std::string> kNotTypes = {
        "return", "new",  "delete", "throw",    "case",
        "else",   "goto", "do",     "co_return", "co_yield"};
    if (t.kind == TokKind::Identifier)
        return kNotTypes.count(t.text) == 0;
    return t.isPunct(">") || t.isPunct(">>") || t.isPunct("*") ||
           t.isPunct("&") || t.isPunct("&&") || t.isPunct("::");
}

/**
 * The declaration a statement [b, e) makes, if any; code[e] is the
 * `;` or `{` that ends it. @p enclosingType names the innermost type
 * being defined around it, for telling constructors from macros.
 */
bool
declarationOf(const SourceFile &file, std::size_t b, std::size_t e,
              const std::string &enclosingType, Decl &decl)
{
    const auto &code = file.code;
    int paren = 0;
    int angle = 0;
    std::size_t firstParen = e;
    std::size_t classKey = e;
    std::size_t op = e;
    for (std::size_t j = b; j < e && firstParen == e; ++j) {
        const Token &t = code[j];
        if (t.isIdent("friend"))
            return false;
        if (paren == 0 && angle == 0 && t.isIdent("operator")) {
            op = j;
            break;
        }
        if (t.isPunct("(")) {
            if (paren == 0 && angle == 0)
                firstParen = j;
            ++paren;
        } else if (t.isPunct(")"))
            --paren;
        else if (paren == 0 && t.isPunct("<"))
            ++angle;
        else if (paren == 0 && t.isPunct(">"))
            angle = angle > 0 ? angle - 1 : 0;
        else if (paren == 0 && t.isPunct(">>"))
            angle = angle > 1 ? angle - 2 : 0;
        else if (paren == 0 && angle == 0 && t.isPunct("="))
            break;
        else if (paren == 0 && angle == 0 &&
                 (t.isIdent("class") || t.isIdent("struct") ||
                  t.isIdent("union") || t.isIdent("enum")))
            classKey = j;
        else if (paren == 0 && angle == 0 && t.isIdent("using") &&
                 j + 2 < e && code[j + 1].kind == TokKind::Identifier &&
                 code[j + 2].isPunct("=")) {
            decl.name = code[j + 1].text;
            decl.isType = true;
            decl.begin = b;
            decl.end = e;
            decl.owners = {decl.name};
            return true;
        }
    }
    const bool body = code[e].isPunct("{");
    decl.begin = b;
    decl.end = body ? std::min(detail::matchClose(code, e),
                               code.size() - 1)
                    : e;

    if (classKey != e) {
        std::size_t n = classKey + 1;
        while (n < e && (code[n].isPunct("[") || code[n].isPunct("]") ||
                         code[n].isIdent("nodiscard")))
            ++n;
        const bool specialization = n + 1 < e && code[n + 1].isPunct("<");
        if (n < e && code[n].kind == TokKind::Identifier &&
            (n + 1 == e || code[n + 1].isPunct(":") || specialization ||
             code[n + 1].isIdent("final"))) {
            // A specialization names no new type; its body still
            // belongs to the template's definition.
            if (!specialization)
                decl.name = code[n].text;
            decl.isType = true;
            decl.owners = {code[n].text};
            if (body && decl.end + 1 < code.size() &&
                code[decl.end + 1].isPunct(";"))
                ++decl.end;
            return true;
        }
    }
    if (op != e) {
        // An operator is no symbol, but its definition still belongs
        // to the type that qualifies it.
        decl.owners = qualifiers(code, b, op);
        return !decl.owners.empty();
    }
    if (firstParen == e || firstParen == b)
        return false;
    const std::size_t n = firstParen - 1;
    if (code[n].kind != TokKind::Identifier)
        return false;
    decl.owners = qualifiers(code, b, n);
    const bool qualified = !decl.owners.empty();
    if (n > b && code[n - 1].isPunct("~")) {
        // A destructor belongs to its type and declares nothing new.
        if (!qualified && enclosingType.empty())
            return false;
        decl.owners.push_back(code[n].text);
        return true;
    }
    if (n == b) {
        // `Name(` opening a statement is a constructor only directly
        // inside the type of that name; elsewhere it is a macro call.
        if (!(file.scope[n] == ScopeKind::Type &&
              code[n].text == enclosingType))
            return false;
    } else if (!typeLike(code[n - 1])) {
        return false;
    }
    decl.name = code[n].text;
    decl.owners.push_back(decl.name);
    return true;
}

/** Every namespace- and type-scope declaration of a file. */
std::vector<Decl>
declarations(const SourceFile &file)
{
    const auto &code = file.code;
    std::vector<Decl> decls;
    std::vector<std::pair<std::string, std::size_t>> types;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (code[i].inDirective) {
            begin = i + 1;
            continue;
        }
        const bool boundary = code[i].isPunct(";") ||
                              code[i].isPunct("{") ||
                              code[i].isPunct("}");
        if (!boundary)
            continue;
        const bool outer = file.scope[i] == ScopeKind::Namespace ||
                           file.scope[i] == ScopeKind::Type;
        // A member declaration starts after its access label.
        if (begin + 1 < i && code[begin + 1].isPunct(":") &&
            (code[begin].isIdent("public") ||
             code[begin].isIdent("private") ||
             code[begin].isIdent("protected")))
            begin += 2;
        if (outer && !code[i].isPunct("}") && begin < i) {
            while (!types.empty() && types.back().second < i)
                types.pop_back();
            Decl decl;
            if (declarationOf(file, begin, i,
                              types.empty() ? "" : types.back().first,
                              decl)) {
                if (decl.isType && code[i].isPunct("{"))
                    types.emplace_back(decl.owners.front(), decl.end);
                decls.push_back(std::move(decl));
            }
        }
        begin = i + 1;
    }
    return decls;
}

class UnreferencedRule final : public Rule
{
  public:
    const char *name() const override { return "unreferenced"; }

    const char *
    summary() const override
    {
        return "every function and type a src/ header declares has a "
               "user in src/, examples/ or tools/";
    }

    void
    checkTree(const std::vector<SourceFile> &files,
              std::vector<Finding> &out) const override
    {
        // A symbol's users may lie in any of the three trees, so only
        // a run that spans all of them can tell a dead one.
        std::set<std::string> trees;
        for (const SourceFile &file : files)
            trees.insert(treeOf(file.path));
        if (trees.count("src") == 0 || trees.count("examples") == 0 ||
            trees.count("tools") == 0)
            return;

        // Symbols: first declaration in a src/ header, in run order.
        std::map<std::string, std::pair<const SourceFile *, Decl>>
            symbols;
        std::vector<std::vector<Decl>> decls;
        for (const SourceFile &file : files) {
            const std::string tree = treeOf(file.path);
            decls.push_back(tree == "tests" ? std::vector<Decl>{}
                                            : declarations(file));
            if (!file.isHeader() || tree != "src")
                continue;
            for (const Decl &d : decls.back())
                if (!d.name.empty())
                    symbols.emplace(d.name, std::make_pair(&file, d));
        }

        std::set<std::string> used;
        for (std::size_t f = 0; f < files.size(); ++f) {
            if (treeOf(files[f].path) == "tests")
                continue;
            const auto &code = files[f].code;
            std::vector<bool> own(code.size(), false);
            for (const Decl &d : decls[f])
                for (std::size_t j = d.begin; j <= d.end; ++j)
                    for (const std::string &owner : d.owners)
                        if (code[j].text == owner)
                            own[j] = true;
            for (std::size_t j = 0; j < code.size(); ++j)
                if (!own[j] && code[j].kind == TokKind::Identifier &&
                    symbols.count(code[j].text) != 0)
                    used.insert(code[j].text);
        }

        for (const auto &[symbol, where] : symbols) {
            if (used.count(symbol) != 0)
                continue;
            // At the declaration's first token, so an allow() comment
            // can stand alone on the line above it.
            const Token &t = where.first->code[where.second.begin];
            Finding f;
            f.rule = name();
            f.path = where.first->path;
            f.line = t.line;
            f.col = t.col;
            f.message = std::string(where.second.isType ? "type"
                                                        : "function") +
                        " '" + symbol +
                        "' has no user outside its own declaration, "
                        "definition and tests";
            f.hint = "delete it with its tests, or call it from src/, "
                     "examples/ or tools/";
            out.push_back(std::move(f));
        }
    }
};

} // namespace

const Rule &
unreferencedRule()
{
    static const UnreferencedRule rule;
    return rule;
}

} // namespace mparch::analysis

/**
 * @file
 * Tests for the project linter: lexer behaviour, per-rule positive
 * and negative fixtures (inline strings and the on-disk corpus under
 * tests/data/lint/), suppression-comment parsing, the JSON report's
 * text, and the meta-test that keeps the
 * real source tree lint-clean.
 *
 * Violating code lives in raw string literals throughout — the
 * lexer treats string contents as opaque, which is itself part of
 * what these tests pin down (this file is swept by lint_all).
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lint.hh"

namespace {

using namespace mparch::analysis;

/** Run one rule (or all when @p rule is empty) over a buffer. */
LintReport
lintBuffer(const std::string &path, const std::string &code,
           const std::string &rule = "")
{
    LintOptions options;
    if (!rule.empty())
        options.onlyRules.push_back(rule);
    LintReport report;
    lintFiles({sourceFromString(path, code)}, options, report);
    return report;
}

/**
 * Run one rule over several (path, code) buffers as one full sweep:
 * an empty examples/ and tools/ file join them, so that `unreferenced`
 * sees every tree it needs.
 */
LintReport
lintTree(const std::vector<std::pair<std::string, std::string>> &files,
         const std::string &rule = "unreferenced")
{
    LintOptions options;
    options.onlyRules.push_back(rule);
    std::vector<SourceFile> sources;
    for (const auto &[path, code] : files)
        sources.push_back(sourceFromString(path, code));
    sources.push_back(sourceFromString("examples/empty.cc", ""));
    sources.push_back(sourceFromString("tools/empty.cc", ""));
    LintReport report;
    lintFiles(sources, options, report);
    return report;
}

/** The quoted symbol of each active `unreferenced` finding, sorted. */
std::vector<std::string>
flaggedSymbols(const LintReport &report)
{
    std::vector<std::string> names;
    for (const Finding &f : report.findings) {
        if (f.suppressed || f.rule != "unreferenced")
            continue;
        const std::size_t open = f.message.find('\'');
        names.push_back(f.message.substr(
            open + 1, f.message.find('\'', open + 1) - open - 1));
    }
    std::sort(names.begin(), names.end());
    return names;
}

std::vector<std::string>
ruleNames(const LintReport &report, bool suppressedToo = false)
{
    std::vector<std::string> names;
    for (const Finding &f : report.findings)
        if (suppressedToo || !f.suppressed)
            names.push_back(f.rule);
    return names;
}

// ---------------------------------------------------------------
// Lexer

TEST(Lexer, CommentsAndStringsAreOpaque)
{
    const auto tokens = lex(
        "int a; // std::rand() in a comment\n"
        "const char *s = \"std::rand()\";\n"
        "/* rand */ int b;\n");
    for (const Token &t : tokens) {
        if (t.kind == TokKind::Identifier) {
            EXPECT_NE(t.text, "rand") << "line " << t.line;
        }
    }
}

TEST(Lexer, RawStringsSwallowEverything)
{
    const auto tokens = lex(
        "const char *s = R\"(std::rand() \" unbalanced { )\";\n"
        "int after;\n");
    bool sawAfter = false;
    for (const Token &t : tokens) {
        EXPECT_NE(t.text, "rand");
        if (t.isIdent("after"))
            sawAfter = true;
    }
    EXPECT_TRUE(sawAfter);
}

TEST(Lexer, DirectivesAndHeaderNames)
{
    const auto tokens = lex("#include <vector>\n"
                            "#include \"fp/softfloat.hh\"\n"
                            "#ifndef GUARD\n");
    ASSERT_GE(tokens.size(), 5u);
    EXPECT_EQ(tokens[0].kind, TokKind::Directive);
    EXPECT_EQ(tokens[0].text, "include");
    EXPECT_EQ(tokens[1].kind, TokKind::HeaderName);
    EXPECT_EQ(tokens[1].text, "vector");
    EXPECT_EQ(tokens[3].kind, TokKind::String);
    EXPECT_EQ(tokens[3].text, "\"fp/softfloat.hh\"");
    EXPECT_EQ(tokens[4].kind, TokKind::Directive);
    EXPECT_EQ(tokens[4].text, "ifndef");
}

TEST(Lexer, DirectiveLinesRunToTheirLastSplice)
{
    // A directive's tokens, its spliced continuation line included,
    // are marked; a '#' inside a block comment opens no directive.
    const auto tokens = lex("#define WRAP(v) \\\n"
                            "    call(v)\n"
                            "int x;\n"
                            "/*\n# not a directive */ int y;\n");
    std::string marked, plain;
    for (const Token &t : tokens)
        if (t.kind != TokKind::Comment)
            (t.inDirective ? marked : plain) += t.text + " ";
    EXPECT_EQ(marked, "define WRAP ( v ) call ( v ) ");
    EXPECT_EQ(plain, "int x ; int y ; ");
}

TEST(Lexer, LineAndColumnPositions)
{
    const auto tokens = lex("a\n  bc\n");
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_EQ(tokens[0].line, 1u);
    EXPECT_EQ(tokens[0].col, 1u);
    EXPECT_EQ(tokens[1].line, 2u);
    EXPECT_EQ(tokens[1].col, 3u);
}

// ---------------------------------------------------------------
// banned-api

TEST(BannedApi, FlagsHiddenStateAndWallClock)
{
    const auto report = lintBuffer("src/metrics/x.cc", R"cpp(
        #include <cstdlib>
        int f() { return std::rand(); }
        long g() { return time(nullptr); }
        const char *h() { return std::getenv("X"); }
        void w() { auto t = std::chrono::system_clock::now(); }
    )cpp", "banned-api");
    EXPECT_EQ(report.active(), 4u);
}

TEST(BannedApi, MemberNamedTimeIsNotFlagged)
{
    const auto report = lintBuffer("src/metrics/x.cc", R"cpp(
        double f(const Exposure &e) { return e.time(); }
        double g(Run *r) { return r->clock(); }
        int h(int time) { return time + 1; }
    )cpp", "banned-api");
    EXPECT_EQ(report.active(), 0u);
}

TEST(BannedApi, GetenvAllowedInCliTrees)
{
    const std::string code = R"cpp(
        #include <cstdlib>
        const char *f() { return std::getenv("MPARCH_X"); }
    )cpp";
    EXPECT_EQ(lintBuffer("examples/cli.cpp", code, "banned-api")
                  .active(),
              0u);
    EXPECT_EQ(lintBuffer("tools/helper.cc", code, "banned-api")
                  .active(),
              0u);
    EXPECT_EQ(lintBuffer("src/core/x.cc", code, "banned-api")
                  .active(),
              1u);
}

TEST(BannedApi, SteadyClockIsFine)
{
    const auto report = lintBuffer("src/report/t.cc", R"cpp(
        #include <chrono>
        auto f() { return std::chrono::steady_clock::now(); }
    )cpp", "banned-api");
    EXPECT_EQ(report.active(), 0u);
}

// ---------------------------------------------------------------
// rng-discipline

TEST(RngDiscipline, FlagsStdRandomMachinery)
{
    const auto report = lintBuffer("src/nn/x.cc", R"cpp(
        #include <random>
        double f() {
            std::mt19937 gen(7);
            std::normal_distribution<double> d(0.0, 1.0);
            return d(gen);
        }
    )cpp", "rng-discipline");
    EXPECT_EQ(report.active(), 2u);
}

TEST(RngDiscipline, FlagsDefaultConstructedRng)
{
    const auto report = lintBuffer("src/nn/x.cc", R"cpp(
        #include "common/rng.hh"
        double f() { mparch::Rng rng; return rng.uniform(); }
    )cpp", "rng-discipline");
    EXPECT_EQ(report.active(), 1u);
}

TEST(RngDiscipline, SeededRngAndMembersAreFine)
{
    const auto report = lintBuffer("src/nn/x.cc", R"cpp(
        #include "common/rng.hh"
        class Net {
            mparch::Rng rng_;   // member: initialized in the ctor
        };
        double f(std::uint64_t seed) {
            mparch::Rng rng(seed);
            return rng.uniform();
        }
    )cpp", "rng-discipline");
    EXPECT_EQ(report.active(), 0u);
}

TEST(RngDiscipline, TrialTreeRequiresCounterStreams)
{
    const std::string adHoc = R"cpp(
        #include "common/rng.hh"
        double t(std::uint64_t seed, std::uint64_t i) {
            mparch::Rng rng(seed + i);
            return rng.uniform();
        }
    )cpp";
    const std::string derived = R"cpp(
        #include "common/rng.hh"
        double t(std::uint64_t seed, std::uint64_t i) {
            mparch::Rng rng = mparch::trialRng(seed, i);
            return rng.uniform();
        }
    )cpp";
    EXPECT_EQ(lintBuffer("src/fault/t.cc", adHoc, "rng-discipline")
                  .active(),
              1u);
    EXPECT_EQ(lintBuffer("src/fault/t.cc", derived, "rng-discipline")
                  .active(),
              0u);
    // Outside the trial machinery the same code is fine.
    EXPECT_EQ(lintBuffer("src/nn/t.cc", adHoc, "rng-discipline")
                  .active(),
              0u);
}

// ---------------------------------------------------------------
// ordered-serialization

TEST(OrderedSerialization, FlagsUnorderedInSerializingFiles)
{
    const std::string code = R"cpp(
        #include <unordered_map>
        #include "common/json.hh"
        void f();
    )cpp";
    const auto report =
        lintBuffer("src/metrics/m.cc", code, "ordered-serialization");
    EXPECT_GE(report.active(), 1u);
}

TEST(OrderedSerialization, UnorderedFineAwayFromSerializers)
{
    const auto report = lintBuffer("src/nn/cache.cc", R"cpp(
        #include <unordered_map>
        std::unordered_map<int, int> cache;
    )cpp", "ordered-serialization");
    EXPECT_EQ(report.active(), 0u);
}

TEST(OrderedSerialization, ReportAndFaultTreesAlwaysCount)
{
    const auto report = lintBuffer("src/report/r.cc", R"cpp(
        #include <unordered_set>
        std::unordered_set<int> seen;
    )cpp", "ordered-serialization");
    // Both the include and the use are flagged.
    EXPECT_EQ(report.active(), 2u);
}

// ---------------------------------------------------------------
// hook-coverage

TEST(HookCoverage, FlagsUnthreadedRoundPackAndTouch)
{
    const auto report = lintBuffer("src/fp/bad.cc", R"cpp(
        #include "fp/softfloat.hh"
        namespace mparch::fp {
        std::uint64_t f(Format f, RawFloat raw) {
            return roundPack(f, raw);
        }
        std::uint64_t g(Format f, std::uint64_t a) {
            return detail::touch({}, OpKind::Add, Stage::OperandA,
                                 f.totalBits, a);
        }
        }
    )cpp", "hook-coverage");
    EXPECT_EQ(report.active(), 2u);
}

TEST(HookCoverage, ThreadedPathsPass)
{
    const auto report = lintBuffer("src/fp/good.cc", R"cpp(
        #include "fp/softfloat.hh"
        namespace mparch::fp {
        std::uint64_t entry(Format f, std::uint64_t a) {
            const OpCtx ctx = detail::enterOp(OpKind::Add);
            a = detail::touch(ctx, OpKind::Add, Stage::OperandA,
                              f.totalBits, a);
            return roundPack(f, {false, 0, a}, ctx, OpKind::Add);
        }
        std::uint64_t helper(Format f, RawFloat raw,
                             const OpCtx &ctx) {
            raw.sig = detail::touch(ctx, OpKind::Add,
                                    Stage::PreRoundSig, 64, raw.sig);
            return roundPack(f, raw, ctx, OpKind::Add);
        }
        }
    )cpp", "hook-coverage");
    EXPECT_EQ(report.active(), 0u);
}

TEST(HookCoverage, ControlFlowBracesAreNotFunctions)
{
    // An if-block between the OpCtx parameter and the touch call
    // must not sever the function's dispatch context.
    const auto report = lintBuffer("src/fp/branchy.cc", R"cpp(
        namespace mparch::fp {
        std::uint64_t f(std::uint64_t a, const OpCtx &ctx,
                        bool instrumented) {
            if (instrumented) {
                a = detail::touch(ctx, OpKind::Add, Stage::OperandA,
                                  16, a);
            }
            return a;
        }
        }
    )cpp", "hook-coverage");
    EXPECT_EQ(report.active(), 0u);
}

TEST(HookCoverage, OnlyAppliesToFpSources)
{
    const auto report = lintBuffer("src/verify/v.cc", R"cpp(
        int f() { return roundPack(1, 2); }
    )cpp", "hook-coverage");
    EXPECT_EQ(report.active(), 0u);
}

// ---------------------------------------------------------------
// include-hygiene

TEST(IncludeHygiene, FlagsGuardlessHeader)
{
    const auto report = lintBuffer("src/nn/thing.hh", R"cpp(
        #include <vector>
        inline int f() { return 1; }
    )cpp", "include-hygiene");
    ASSERT_EQ(report.active(), 1u);
    EXPECT_NE(report.findings[0].message.find("include guard"),
              std::string::npos);
}

TEST(IncludeHygiene, AcceptsProjectGuard)
{
    const auto report = lintBuffer("src/nn/thing.hh", R"cpp(
#ifndef MPARCH_NN_THING_HH
#define MPARCH_NN_THING_HH
inline int f() { return 1; }
#endif
    )cpp", "include-hygiene");
    EXPECT_EQ(report.active(), 0u);
}

TEST(IncludeHygiene, FlagsForeignGuardPrefix)
{
    const auto report = lintBuffer("src/nn/thing.hh", R"cpp(
#ifndef SOME_OTHER_GUARD_H
#define SOME_OTHER_GUARD_H
#endif
    )cpp", "include-hygiene");
    EXPECT_EQ(report.active(), 1u);
}

TEST(IncludeHygiene, FlagsParentRelativeInclude)
{
    const auto report = lintBuffer("src/nn/x.cc", R"cpp(
        #include "../common/rng.hh"
    )cpp", "include-hygiene");
    EXPECT_EQ(report.active(), 1u);
}

TEST(IncludeHygiene, SelfIncludeMustComeFirst)
{
    const std::string wrongOrder = R"cpp(
        #include <vector>
        #include "nn/digits.hh"
    )cpp";
    const std::string rightOrder = R"cpp(
        #include "nn/digits.hh"
        #include <vector>
    )cpp";
    EXPECT_EQ(lintBuffer("src/nn/digits.cc", wrongOrder,
                         "include-hygiene")
                  .active(),
              1u);
    EXPECT_EQ(lintBuffer("src/nn/digits.cc", rightOrder,
                         "include-hygiene")
                  .active(),
              0u);
    // A main with no companion header is unconstrained.
    EXPECT_EQ(lintBuffer("examples/quickstart.cpp", wrongOrder,
                         "include-hygiene")
                  .active(),
              0u);
}

// ---------------------------------------------------------------
// host-math

TEST(HostMath, FlagsNativeMathInFpSources)
{
    const auto report = lintBuffer("src/fp/arith.cc", R"cpp(
        #pragma STDC FP_CONTRACT ON
        #include <cmath>
        double f(double a, double b, double c) {
            return std::fma(a, b, c) + ::sqrt(a) + sqrtf(1.0f) +
                   __builtin_fma(a, b, c) + __builtin_sqrtl(c);
        }
    )cpp", "host-math");
    EXPECT_EQ(report.active(), 6u);
}

TEST(HostMath, HostGateFileIsTheException)
{
    const auto report = lintBuffer("src/fp/host.cc", R"cpp(
        #include <cmath>
        double f(double a, double b, double c) {
            return std::fma(a, b, c) + std::sqrt(a);
        }
    )cpp", "host-math");
    EXPECT_EQ(report.active(), 0u);
}

TEST(HostMath, FlagsIsaDispatchOutsideTheGate)
{
    const char *dispatch = R"cpp(
        #pragma GCC target("avx2")
        [[gnu::target("fma")]] float f(float a);
        __attribute__((noinline, target_clones("default", "fma")))
        float g(float a);
        [[gnu::__target__("avx")]] float h(float a);
        bool fast() { return __builtin_cpu_supports("fma"); }
        void init() { __builtin_cpu_init(); }
        // Plain uses of the word are no attribute.
        int target(int x) { return x; }
        int y = target(3) + spec.target;
    )cpp";
    EXPECT_EQ(lintBuffer("src/workloads/mxm.cc", dispatch, "host-math")
                  .active(),
              6u);
    EXPECT_EQ(lintBuffer("src/fp/arith.cc", dispatch, "host-math")
                  .active(),
              6u);
    // The gate itself, and code outside src/, may dispatch.
    EXPECT_EQ(lintBuffer("src/fp/host.cc", dispatch, "host-math")
                  .active(),
              0u);
    EXPECT_EQ(lintBuffer("src/fp/host.hh", dispatch, "host-math")
                  .active(),
              0u);
    EXPECT_EQ(lintBuffer("tests/fp_host_gate_test.cc", dispatch,
                         "host-math")
                  .active(),
              0u);
}

TEST(HostMath, FpValueOverloadsAreNotHostMath)
{
    // value.hh names its softfloat wrappers fma and sqrt; only a
    // std:: spelling there is host math.
    const auto report = lintBuffer("src/fp/value.hh", R"cpp(
        template <Precision P>
        Fp<P> fma(Fp<P> a, Fp<P> b, Fp<P> c);
        template <Precision P>
        Fp<P> sqrt(Fp<P> a) { return Fp<P>::fromBits(fpSqrt(a)); }
        inline double host(double x) { return std::sqrt(x); }
    )cpp", "host-math");
    EXPECT_EQ(report.active(), 1u);
}

TEST(HostMath, HostHeaderIsPartOfTheGate)
{
    // fp/host.hh holds the inline per-format ops that host.cc and the
    // block gate's HostFp<P> share.
    const auto report = lintBuffer("src/fp/host.hh", R"cpp(
        #include <cmath>
        template <class T> T hostFma(T a, T b, T c) {
            return std::fma(a, b, c) + std::sqrt(a);
        }
    )cpp", "host-math");
    EXPECT_EQ(report.active(), 0u);
}

TEST(HostMath, ExpCompositionOverloadsAreNotHostMath)
{
    // transcendental.cc composes exp over a value type through its
    // unqualified fma overload; a std:: or :: spelling is host math,
    // and so is any native math in a header of that name.
    const auto report = lintBuffer("src/fp/transcendental.cc", R"cpp(
        template <class V> V poly(V p, V r, V c) { return fma(p, r, c); }
        double host(double x) { return std::fma(x, x, x) + ::sqrt(x); }
    )cpp", "host-math");
    EXPECT_EQ(report.active(), 2u);
    const auto header = lintBuffer("src/fp/transcendental.hh", R"cpp(
        template <class V> V poly(V p, V r, V c) { return fma(p, r, c); }
    )cpp", "host-math");
    EXPECT_EQ(header.active(), 1u);
}

TEST(HostMath, OnlyAppliesToFpSources)
{
    const auto report = lintBuffer("src/verify/host_oracle.cc", R"cpp(
        double f(double a, double b, double c) {
            return std::fma(a, b, c) + v.sqrt(a);
        }
    )cpp", "host-math");
    EXPECT_EQ(report.active(), 0u);
    const auto member = lintBuffer("src/fp/x.cc", R"cpp(
        double f(Vec v) { return v.sqrt() + p->fma(); }
    )cpp", "host-math");
    EXPECT_EQ(member.active(), 0u);
}

// ---------------------------------------------------------------
// unreferenced

const char *const kApiHeader = R"cpp(
#ifndef MPARCH_X_API_HH
#define MPARCH_X_API_HH
namespace mparch::x {
int used(int v);
int unused(int v);
class Meter
{
  public:
    double read() const;
    void reset();
};
}
#endif
)cpp";

TEST(Unreferenced, FlagsUnusedFreeFunctionAndMember)
{
    const auto report = lintTree({
        {"src/x/api.hh", kApiHeader},
        {"src/x/api.cc", R"cpp(
            #include "x/api.hh"
            namespace mparch::x {
            int used(int v) { return v + 1; }
            int unused(int v) { return v - 1; }
            double Meter::read() const { return 1.0; }
            void Meter::reset() {}
            }
        )cpp"},
        {"examples/main.cpp", R"cpp(
            int main() {
                mparch::x::Meter m;
                return mparch::x::used(2) + int(m.read());
            }
        )cpp"},
    });
    EXPECT_EQ(flaggedSymbols(report),
              (std::vector<std::string>{"reset", "unused"}));
    // Reported at the declaration in the header, not the definition.
    for (const Finding &f : report.findings)
        EXPECT_EQ(f.path, "src/x/api.hh");
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.findings[0].line, 6u);   // int unused(int v);
    EXPECT_EQ(report.findings[1].line, 11u);  // void reset();
}

TEST(Unreferenced, TestOnlyUserDoesNotCount)
{
    const std::string testUser = R"cpp(
        #include "x/api.hh"
        TEST(Api, Everything) {
            mparch::x::Meter m; m.reset();
            EXPECT_EQ(mparch::x::used(1) + mparch::x::unused(1), 2);
            EXPECT_EQ(m.read(), 1.0);
        }
    )cpp";
    EXPECT_EQ(flaggedSymbols(lintTree({{"src/x/api.hh", kApiHeader},
                                       {"tests/api_test.cc", testUser}})),
              (std::vector<std::string>{"Meter", "read", "reset", "unused",
                                        "used"}));
    // A tool is a user like the library itself.
    EXPECT_EQ(flaggedSymbols(lintTree({{"src/x/api.hh", kApiHeader},
                                       {"tests/api_test.cc", testUser},
                                       {"tools/meter.cc", testUser}})),
              std::vector<std::string>{});
}

TEST(Unreferenced, OverrideOfUsedVirtualIsUsed)
{
    const auto report = lintTree({
        {"src/x/shape.hh", R"cpp(
            struct Shape { virtual ~Shape() = default;
                           virtual double area() const = 0;
                           virtual double perimeter() const = 0; };
            struct Square final : Shape {
                double area() const override { return 1.0; }
                double perimeter() const override { return 4.0; }
            };
        )cpp"},
        {"src/x/use.cc", R"cpp(
            double f(const Shape &s) { return s.area(); }
            double g() { return f(Square{}); }
        )cpp"},
    });
    EXPECT_EQ(flaggedSymbols(report),
              std::vector<std::string>{"perimeter"});
}

TEST(Unreferenced, OwnDefinitionIsNoUse)
{
    // A type named only by its own body and its out-of-line member
    // definitions, and a function that only calls itself, are dead.
    const auto report = lintTree({
        {"src/x/counter.hh", R"cpp(
            namespace x {
            template <int N> class Counter {
              public:
                Counter() = default;
                explicit Counter(int start);
                Counter &bump();
              private:
                int n_ = 0;
            };
            int countdown(int n);
            }
        )cpp"},
        {"src/x/counter.cc", R"cpp(
            namespace x {
            template <int N> Counter<N>::Counter(int start) : n_(start) {}
            template <int N> Counter<N> &Counter<N>::bump() {
                ++n_;
                return *this;
            }
            int countdown(int n) { return n > 0 ? countdown(n - 1) : 0; }
            }
        )cpp"},
    });
    EXPECT_EQ(flaggedSymbols(report),
              (std::vector<std::string>{"Counter", "bump", "countdown"}));
}

TEST(Unreferenced, MacrosCallsAndSpecializationsAreNoDeclarations)
{
    // A macro call at namespace scope and a call inside a default
    // member initializer are uses, and so is a name in a macro body.
    // A specialization declares no new name.
    const auto report = lintTree({
        {"src/x/api.hh", R"cpp(
            #ifndef MPARCH_X_API_HH
            #define MPARCH_X_API_HH
            int registerAll();
            int seedOf(int v);
            int fromMacro(int v);
            #define MPARCH_WRAP(v) \
                fromMacro(v)
            struct Key { int v; };
            namespace std {
            template <> struct hash<Key> {
                size_t operator()(const Key &k) const { return k.v; }
            };
            }
            #endif
        )cpp"},
        {"src/x/use.cc", R"cpp(
            REGISTER(registerAll);
            struct Holder { int seed = seedOf(3); Key key; };
            int h() { return MPARCH_WRAP(2); }
        )cpp"},
    });
    EXPECT_EQ(flaggedSymbols(report), std::vector<std::string>{});
}

TEST(Unreferenced, AllowCommentAboveTheDeclarationWaivesIt)
{
    const auto report = lintTree({{"src/x/api.hh", R"cpp(
        /** Only the benchmark calls it. */
        // mparch-lint: allow(unreferenced): an out-of-tree caller
        std::shared_ptr<int>
        benchOnly(int v);
    )cpp"}});
    EXPECT_EQ(report.active(), 0u);
    ASSERT_EQ(report.suppressedCount(), 1u);
    EXPECT_EQ(report.findings[0].suppressReason, "an out-of-tree caller");
}

TEST(Unreferenced, UnusedTypesAndAliasesAreFlagged)
{
    const auto report = lintTree({
        {"src/x/types.hh", R"cpp(
            namespace x {
            enum class Mode { Fast, Slow };
            enum class Stale { Old };
            struct Used { int v; };
            struct Unused { int v; };
            using Bits = unsigned;
            using Dead = int;
            }
        )cpp"},
        {"src/x/use.cc", R"cpp(
            x::Bits f(x::Mode m, x::Used u) {
                return m == x::Mode::Fast ? x::Bits(u.v) : 0u;
            }
        )cpp"},
    });
    EXPECT_EQ(flaggedSymbols(report),
              (std::vector<std::string>{"Dead", "Stale", "Unused"}));
    for (const Finding &f : report.findings)
        EXPECT_EQ(f.message.rfind("type '", 0), 0u) << f.message;
}

TEST(Unreferenced, CollidingNamesKeepTheDeadOneAlive)
{
    // Matching goes by token: a dead member shares its spelling with
    // a live function elsewhere, so the rule keeps both rather than
    // risk flagging the live one.
    const auto report = lintTree({
        {"src/x/tally.hh", R"cpp(
            struct Tally {
                int hits = 0;
                void merge(const Tally &other);
                void clear();
            };
        )cpp"},
        {"src/x/tally.cc", R"cpp(
            void Tally::merge(const Tally &other) { hits += other.hits; }
            void Tally::clear() { hits = 0; }
        )cpp"},
        {"src/x/sweep.cc", R"cpp(
            namespace verify {
            int merge(int a, int b) { return a + b; }
            }
            int run(Tally &t) { return verify::merge(t.hits, 1); }
        )cpp"},
    });
    EXPECT_EQ(flaggedSymbols(report), std::vector<std::string>{"clear"});
}

TEST(Unreferenced, OnlySrcHeadersDeclareSymbols)
{
    // A src/ source file's own helpers, and the headers of tools/
    // and tests/, are no library surface: nothing there is flagged.
    const auto report = lintTree({
        {"src/x/api.hh", "int exported();\nint dropped();\n"},
        {"src/x/api.cc", "static int local();\n"
                         "int exported() { return 1; }\n"},
        {"tools/tool.hh", "int toolOnly();\n"},
        {"tests/test_util.hh", "int helperOnly();\n"},
        {"examples/main.cpp", "int main() { return exported(); }\n"},
    });
    EXPECT_EQ(flaggedSymbols(report), std::vector<std::string>{"dropped"});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].path, "src/x/api.hh");
    EXPECT_EQ(report.findings[0].line, 2u);
}

TEST(Unreferenced, PartialRunReportsNothing)
{
    // A run without examples/ or without tools/ cannot see all users,
    // so it reports nothing, not a false finding.
    const std::vector<std::pair<std::string, std::string>> tree = {
        {"src/x/api.hh", "int exported();\nint dropped();\n"},
        {"examples/main.cpp", "int main() { return exported(); }\n"},
        {"tools/tool.cc", "int run() { return 0; }\n"},
    };
    LintOptions options;
    options.onlyRules.push_back("unreferenced");
    for (std::size_t left = 0; left <= tree.size(); ++left) {
        std::vector<SourceFile> sources;
        for (std::size_t i = 0; i < tree.size(); ++i)
            if (i != left)
                sources.push_back(
                    sourceFromString(tree[i].first, tree[i].second));
        LintReport report;
        lintFiles(sources, options, report);
        EXPECT_EQ(flaggedSymbols(report),
                  left == tree.size() ? std::vector<std::string>{"dropped"}
                                      : std::vector<std::string>{})
            << "left out file " << left;
    }
}

// ---------------------------------------------------------------
// Tree pass plumbing

TEST(TreePass, FindingsJoinTheirFileInLineOrder)
{
    // Tree findings land in the file they name, sorted by line among
    // that file's per-file findings; files keep run order.
    LintOptions options;
    options.onlyRules = {"banned-api", "unreferenced"};
    LintReport report;
    lintFiles({sourceFromString("src/x/api.hh",
                                "int dead();\n"
                                "inline int roll() { return std::rand(); }\n"
                                "int later();\n"),
               sourceFromString("src/x/use.cc",
                                "int f() { return roll() + std::rand(); }\n"),
               sourceFromString("examples/empty.cc", ""),
               sourceFromString("tools/empty.cc", "")},
              options, report);
    EXPECT_EQ(report.filesScanned, 4u);
    std::vector<std::tuple<std::string, std::size_t, std::string>> got;
    for (const Finding &f : report.findings)
        got.emplace_back(f.path, f.line, f.rule);
    const std::vector<std::tuple<std::string, std::size_t, std::string>>
        want = {{"src/x/api.hh", 1, "unreferenced"},
                {"src/x/api.hh", 2, "banned-api"},
                {"src/x/api.hh", 3, "unreferenced"},
                {"src/x/use.cc", 1, "banned-api"}};
    EXPECT_EQ(got, want);
}

TEST(TreePass, OnlyRulesSelectsTreeRulesToo)
{
    const std::vector<std::pair<std::string, std::string>> header = {
        {"src/x/api.hh", "int dead();\n"}};
    EXPECT_EQ(lintTree(header, "banned-api").active(), 0u);
    const auto report = lintTree(header);
    ASSERT_EQ(report.active(), 1u);
    EXPECT_EQ(report.findings[0].rule, "unreferenced");
}

// ---------------------------------------------------------------
// Suppressions

TEST(Suppression, SameLineWaives)
{
    const auto report = lintBuffer("src/x.cc",
        "#include <cstdlib>\n"
        "int f() { return std::rand(); } "
        "// mparch-lint: allow(banned-api): fixture needs rand\n",
        "banned-api");
    EXPECT_EQ(report.active(), 0u);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_TRUE(report.findings[0].suppressed);
    EXPECT_EQ(report.findings[0].suppressReason,
              "fixture needs rand");
}

TEST(Suppression, LineAboveWaivesWhenAlone)
{
    const auto report = lintBuffer("src/x.cc",
        "#include <cstdlib>\n"
        "// mparch-lint: allow(banned-api): exercising line-above\n"
        "int f() { return std::rand(); }\n",
        "banned-api");
    EXPECT_EQ(report.active(), 0u);
    EXPECT_EQ(report.suppressedCount(), 1u);
}

TEST(Suppression, WrongRuleDoesNotWaive)
{
    const auto report = lintBuffer("src/x.cc",
        "#include <cstdlib>\n"
        "int f() { return std::rand(); } "
        "// mparch-lint: allow(include-hygiene): wrong rule\n",
        "banned-api");
    EXPECT_EQ(report.active(), 1u);
}

TEST(Suppression, MissingReasonIsItselfAFinding)
{
    const auto report = lintBuffer(
        "src/x.cc", "// mparch-lint: allow(banned-api)\n");
    ASSERT_EQ(report.active(), 1u);
    EXPECT_EQ(report.findings[0].rule, suppressionRuleName());
}

TEST(Suppression, UnknownRuleIsItselfAFinding)
{
    const auto report = lintBuffer(
        "src/x.cc",
        "// mparch-lint: allow(made-up-rule): because\n");
    ASSERT_EQ(report.active(), 1u);
    EXPECT_EQ(report.findings[0].rule, suppressionRuleName());
}

TEST(Suppression, ProseMentionsAreIgnored)
{
    const auto report = lintBuffer(
        "src/x.cc",
        "// Docs: waive a finding by writing a comment of the form\n"
        "// described in docs — mparch-lint: allow(rule): reason —\n"
        "// anchored at the start of its own comment.\n");
    EXPECT_EQ(report.active(), 0u);
}

// ---------------------------------------------------------------
// Registry and report plumbing

TEST(Registry, CatalogueIsStable)
{
    std::vector<std::string> names;
    for (const Rule *r : allRules())
        names.push_back(r->name());
    const std::vector<std::string> expected = {
        "banned-api",          "rng-discipline",
        "ordered-serialization", "hook-coverage",
        "include-hygiene",     "host-math",
        "unreferenced",
    };
    EXPECT_EQ(names, expected);
    for (const Rule *r : allRules()) {
        EXPECT_EQ(findRule(r->name()), r);
        EXPECT_STRNE(r->summary(), "");
    }
    EXPECT_EQ(findRule("no-such-rule"), nullptr);
}

TEST(Report, JsonReportNamesEveryFinding)
{
    LintReport report = lintBuffer("src/x.cc",
        "#include <cstdlib>\n"
        "int f() { return std::rand(); }\n"
        "int g() { return std::rand(); } "
        "// mparch-lint: allow(banned-api): json fixture\n");
    ASSERT_EQ(report.findings.size(), 2u);
    std::ostringstream os;
    writeJsonReport(report, os);
    const std::string out = os.str();

    for (const char *text : {"\"tool\": \"mparch_lint\",\n",
                             "\"filesScanned\": 1,\n",
                             "\"activeFindings\": 1,\n",
                             "\"suppressedFindings\": 1,\n"})
        EXPECT_NE(out.find(text), std::string::npos) << text;
    // The active finding on line 2, then the suppressed one on line 3.
    const auto first = out.find("\"rule\": \"banned-api\",\n"
                                "      \"path\": \"src/x.cc\",\n"
                                "      \"line\": 2,\n");
    const auto second = out.find("\"rule\": \"banned-api\",\n"
                                 "      \"path\": \"src/x.cc\",\n"
                                 "      \"line\": 3,\n");
    ASSERT_NE(first, std::string::npos) << out;
    ASSERT_NE(second, std::string::npos) << out;
    EXPECT_LT(first, second);
    EXPECT_NE(out.find("\"suppressed\": false\n", first), std::string::npos);
    EXPECT_NE(out.find("\"suppressed\": true,\n"
                       "      \"reason\": \"json fixture\"\n",
                       second),
              std::string::npos)
        << out;
}

// ---------------------------------------------------------------
// On-disk fixture corpus

TEST(Fixtures, EveryRuleFiresOnTheCorpus)
{
    const std::string corpus =
        std::string(MPARCH_SOURCE_DIR) + "/tests/data/lint";
    const LintReport report = lintPaths({corpus}, LintOptions{});
    EXPECT_TRUE(report.errors.empty());
    EXPECT_GT(report.active(), 0u);
    const auto names = ruleNames(report);
    for (const Rule *rule : allRules()) {
        EXPECT_NE(std::count(names.begin(), names.end(),
                             rule->name()),
                  0)
            << "rule " << rule->name()
            << " has no on-disk violation fixture";
    }
    EXPECT_NE(std::count(names.begin(), names.end(),
                         suppressionRuleName()),
              0);
}

TEST(Fixtures, UnreferencedFlagsExactlyTheDeadCorpusSymbols)
{
    // A free function nothing calls, a member nothing calls and a
    // function only a test calls; the override an example reaches
    // through its base stays unflagged.
    const std::string corpus =
        std::string(MPARCH_SOURCE_DIR) + "/tests/data/lint";
    LintOptions options;
    options.onlyRules.push_back("unreferenced");
    EXPECT_EQ(flaggedSymbols(lintPaths({corpus}, options)),
              (std::vector<std::string>{"debugDump", "orphanHelper",
                                        "reset"}));
}

TEST(Fixtures, TreePassSpansEveryPathArgument)
{
    // Users count across separate path arguments: the headers alone
    // are no full sweep and report nothing; given the corpus's
    // examples/ and tools/ as two more paths, only Gauge::reset is
    // dead.
    const std::string dir =
        std::string(MPARCH_SOURCE_DIR) + "/tests/data/lint/";
    LintOptions options;
    options.onlyRules.push_back("unreferenced");
    const std::vector<std::string> headers = {
        dir + "src/unreferenced/unused_member.hh",
        dir + "src/unreferenced/used_override.hh"};
    EXPECT_EQ(lintPaths(headers, options).findings.size(), 0u);
    std::vector<std::string> withUsers = headers;
    withUsers.push_back(dir + "examples");
    withUsers.push_back(dir + "tools");
    EXPECT_EQ(flaggedSymbols(lintPaths(withUsers, options)),
              std::vector<std::string>{"reset"});
}

TEST(Fixtures, SuppressedFixtureScansClean)
{
    const std::string path = std::string(MPARCH_SOURCE_DIR) +
                             "/tests/data/lint/suppressed_clean.cc";
    const LintReport report = lintPaths({path}, LintOptions{});
    EXPECT_EQ(report.active(), 0u);
    EXPECT_GE(report.suppressedCount(), 2u);
}

// ---------------------------------------------------------------
// The real tree

TEST(RealTree, SweepIsLintClean)
{
    const std::string root = MPARCH_SOURCE_DIR;
    const LintReport report =
        lintPaths({root + "/src", root + "/examples",
                   root + "/tools", root + "/tests"},
                  LintOptions{});
    EXPECT_TRUE(report.errors.empty());
    for (const Finding &f : report.findings) {
        EXPECT_TRUE(f.suppressed)
            << f.path << ":" << f.line << ": [" << f.rule << "] "
            << f.message;
    }
    // The suppression budget is part of the contract: at most three
    // justified waivers in the whole tree.
    EXPECT_LE(report.suppressedCount(), 3u);
    // Sanity: the sweep actually saw the tree, and fixture files
    // under tests/data/ stayed out of it.
    EXPECT_GT(report.filesScanned, 150u);
    for (const Finding &f : report.findings)
        EXPECT_EQ(f.path.find("/tests/data/"), std::string::npos);
}

} // namespace

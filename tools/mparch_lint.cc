/**
 * @file
 * mparch_lint — project-rule determinism & injectability linter.
 *
 * Usage:
 *   mparch_lint [options] <file-or-dir>...
 *
 * Options:
 *   --list-rules       print the rule catalogue and exit
 *   --rule <name>      run only this rule (repeatable)
 *   --json <path>      also write the machine-readable report
 *   --show-suppressed  print suppressed findings too
 *   -h, --help         usage
 *
 * Exit status: 0 clean, 1 unsuppressed findings, 2 usage or I/O
 * error (an unknown option or rule, or a missing value, prints usage
 * on stderr). Wired into tier-1 as the `lint_all` ctest entry.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "common/cli.hh"

namespace {

const mparch::cli::Spec kSpec{
    .usage = "usage: mparch_lint [--list-rules] [--rule <name>]...\n"
             "                   [--json <path>] [--show-suppressed]\n"
             "                   <file-or-dir>...\n"
             "\n"
             "Lints C++ sources against the project's determinism and\n"
             "injectability rules. Directories are walked recursively\n"
             "(skipping data/ and build*/). Exit status: 0 clean,\n"
             "1 findings, 2 usage/I-O error.\n",
    .text = {"json"},
    .switches = {"help", "list-rules", "show-suppressed"},
    .repeatable = {"rule"},
    .variadic = true,
};

void
listRules(std::ostream &os)
{
    for (const auto *rule : mparch::analysis::allRules())
        os << rule->name() << "\n    " << rule->summary() << "\n";
    os << mparch::analysis::suppressionRuleName()
       << "\n    (meta) malformed or unjustified "
          "`mparch-lint: allow(...)` comments\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mparch::analysis;

    const mparch::cli::Args args = mparch::cli::parse(kSpec, argc, argv);
    if (args.has("list-rules")) {
        listRules(std::cout);
        return 0;
    }
    LintOptions options;
    for (const std::string &rule : args.all("rule")) {
        if (findRule(rule) == nullptr)
            args.fail("unknown rule '" + rule + "' (see --list-rules)");
        options.onlyRules.push_back(rule);
    }
    if (args.positionals().empty())
        args.fail("no files or directories given");

    const LintReport report = lintPaths(args.positionals(), options);
    printReport(report, std::cout, args.has("show-suppressed"));

    const std::string jsonPath = args.text("json");
    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::cerr << "mparch_lint: cannot write " << jsonPath
                      << "\n";
            return 2;
        }
        writeJsonReport(report, out);
    }
    if (!report.errors.empty())
        return 2;
    return report.active() == 0 ? 0 : 1;
}

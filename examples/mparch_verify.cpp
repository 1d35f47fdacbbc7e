/**
 * @file
 * mparch_verify — differential-oracle frontend for the softfloat core.
 *
 * Subcommands (flags: kUsage below, printed on any usage error):
 *
 *   quick   The regression gate: replay the persisted counterexample
 *           corpus, run the exhaustive binary16 unary sweeps
 *           (sqrt/exp and the half->single/double/bfloat16
 *           conversions), then fuzz every memory format with N
 *           trials each (default 10^6, fixed seed).
 *   sweep   Sweep one operation. With --samples 0 (the default) the
 *           sweep is exhaustive: all operand pairs for binary ops
 *           (16-bit formats only), all inputs for unary ops and
 *           conversions. OP is one of add sub mul div fma sqrt exp
 *           convert; convert needs --dst, and fma needs
 *           --samples (its triples are too many to enumerate).
 *   fuzz    Property-based fuzzing of one format. LIST is
 *           comma-separated op names (default: all ops).
 *   corpus  Replay the regression corpus alone.
 *   check   Run a single case through production code, every oracle
 *           and the host-FPU gate, verbosely. This is the command
 *           mismatch reports print.
 *
 * Counts (--trials, --seed, --samples, --a ...) are whole decimal or
 * 0x-prefixed hex numbers. Exit code 0 when everything agrees, 1 on
 * any mismatch, 2 on a usage error: an unknown subcommand or option,
 * a missing value, a malformed number or an unknown op/format name
 * prints usage on stderr.
 */

#include <iostream>
#include <sstream>
#include <string>

#include "common/cli.hh"
#include "fp/softfloat.hh"
#include "verify/verify.hh"

namespace {

using namespace mparch;
using verify::Case;
using verify::VOp;

const char *const kUsage =
    "usage: mparch_verify <quick|sweep|fuzz|corpus|check> [--opt value"
    " ...]\n"
    "  quick  [--corpus DIR] [--trials N] [--seed S] [--jobs N]\n"
    "  sweep  --op OP --format F [--dst D] [--samples N] [--seed S]\n"
    "         [--jobs N] [--no-props] [--no-monotone] [--max-report N]\n"
    "         [--exp-tol N]\n"
    "  fuzz   --format F [--trials N] [--seed S] [--jobs N]"
    " [--ops LIST]\n"
    "  corpus [--corpus DIR]\n"
    "  check  --op OP --format F [--dst D] --a HEX [--b HEX]"
    " [--c HEX]\n"
    "  --jobs N: worker threads, 0 (default) = all hardware threads;"
    " at most 1024\n";

cli::Args
parseArgs(int argc, char **argv, cli::Spec spec)
{
    spec.usage = kUsage;
    return cli::parse(spec, argc, argv, 2);
}

fp::Format
requireFormat(const cli::Args &args, const std::string &key)
{
    const std::string name = args.text(key);
    if (name.empty())
        args.fail("missing --" + key);
    const auto f = verify::parseFormat(name);
    if (!f)
        args.fail("unknown format '" + name + "'");
    return *f;
}

VOp
requireOp(const cli::Args &args)
{
    const std::string name = args.text("op");
    if (name.empty())
        args.fail("missing --op");
    const auto op = verify::parseVOp(name);
    if (!op)
        args.fail("unknown op '" + name + "'");
    return *op;
}

/** Default corpus location: source tree when run from a checkout. */
std::string
corpusDir(const cli::Args &args)
{
    return args.text("corpus", "tests/data/fp_corpus");
}

int
reportSweep(const std::string &what, const verify::SweepReport &report)
{
    std::cout << what << ": " << report.cases << " cases, "
              << report.mismatches << " mismatches\n";
    for (const verify::Mismatch &m : report.sample)
        std::cout << verify::describeMismatch(m) << "\n";
    return report.ok() ? 0 : 1;
}

int
replayCorpus(const std::string &dir)
{
    const std::vector<Case> cases = verify::loadCorpusDir(dir);
    verify::CheckOptions opts;
    std::uint64_t mismatches = 0;
    for (const Case &c : cases) {
        std::vector<verify::Mismatch> found;
        if (!verify::checkCase(c, opts, &found)) {
            ++mismatches;
            for (const verify::Mismatch &m : found)
                std::cout << verify::describeMismatch(m) << "\n";
        }
    }
    std::cout << "corpus: " << cases.size() << " cases from " << dir
              << ", " << mismatches << " failing\n";
    return mismatches == 0 ? 0 : 1;
}

int
runFuzz(fp::Format f, const verify::FuzzConfig &cfg)
{
    const verify::FuzzReport report = verify::fuzzFormat(f, cfg);
    std::cout << "fuzz " << verify::formatName(f) << ": "
              << report.trials << " trials, " << report.failures
              << " failures\n";
    for (const verify::FuzzFailure &fail : report.sample) {
        std::cout << "trial " << fail.trial << " (seed " << cfg.seed
                  << "), shrunk from: "
                  << verify::corpusLine(fail.original) << "\n";
        for (const verify::Mismatch &m : fail.mismatches)
            std::cout << verify::describeMismatch(m) << "\n";
    }
    return report.ok() ? 0 : 1;
}

int
cmdQuick(int argc, char **argv)
{
    const cli::Args args = parseArgs(
        argc, argv,
        {.text = {"corpus"}, .counts = {"trials", "seed", "jobs"}});
    const unsigned jobs = args.jobs();
    const std::uint64_t seed = args.count("seed", 1);
    const std::uint64_t trials = args.count("trials", 1000000);

    int rc = replayCorpus(corpusDir(args));

    // Exhaustive binary16 unary coverage is cheap enough for the
    // default tier; the 2^32 pair sweeps stay behind -L exhaustive.
    verify::SweepConfig sweep;
    sweep.jobs = jobs;
    sweep.seed = seed;
    for (VOp op : {VOp::Sqrt, VOp::Exp}) {
        std::string what =
            std::string("sweep half ") + verify::vopName(op);
        rc |= reportSweep(what, verify::sweepUnary(op, fp::kHalf,
                                                   sweep));
    }
    for (fp::Format dst : {fp::kSingle, fp::kDouble, fp::kBfloat16}) {
        std::string what = std::string("sweep convert half -> ") +
                           verify::formatName(dst);
        rc |= reportSweep(
            what, verify::sweepConvert(fp::kHalf, dst, sweep));
    }

    verify::FuzzConfig fuzz;
    fuzz.jobs = jobs;
    fuzz.seed = seed;
    fuzz.trials = trials;
    for (fp::Format f :
         {fp::kHalf, fp::kSingle, fp::kDouble, fp::kBfloat16})
        rc |= runFuzz(f, fuzz);
    return rc;
}

int
cmdSweep(int argc, char **argv)
{
    const cli::Args args = parseArgs(
        argc, argv,
        {.text = {"op", "format", "dst"},
         .counts = {"samples", "seed", "jobs", "max-report", "exp-tol"},
         .switches = {"no-props", "no-monotone"}});
    const VOp op = requireOp(args);
    const fp::Format f = requireFormat(args, "format");

    verify::SweepConfig cfg;
    cfg.jobs = args.jobs();
    cfg.samples = args.count("samples", 0);
    cfg.seed = args.count("seed", 1);
    cfg.maxReport =
        static_cast<std::size_t>(args.count("max-report", 32));
    cfg.checkMonotone = !args.has("no-monotone");
    cfg.check.props = !args.has("no-props");
    cfg.check.prop.expUlpTol = static_cast<int>(args.count(
        "exp-tol",
        static_cast<std::uint64_t>(cfg.check.prop.expUlpTol)));

    std::ostringstream what;
    what << "sweep " << verify::formatName(f) << ' '
         << verify::vopName(op);
    if (op == VOp::Convert) {
        const fp::Format dst = requireFormat(args, "dst");
        what << " -> " << verify::formatName(dst);
        return reportSweep(what.str(),
                           verify::sweepConvert(f, dst, cfg));
    }
    if (verify::vopArity(op) == 3) {
        if (cfg.samples == 0)
            args.fail("--op " + std::string(verify::vopName(op)) +
                      " needs --samples: its operand triples cannot "
                      "be enumerated");
        return reportSweep(what.str(),
                           verify::sweepTriples(op, f, cfg));
    }
    if (verify::vopArity(op) == 2)
        return reportSweep(what.str(), verify::sweepPairs(op, f, cfg));
    return reportSweep(what.str(), verify::sweepUnary(op, f, cfg));
}

int
cmdFuzz(int argc, char **argv)
{
    const cli::Args args = parseArgs(
        argc, argv,
        {.text = {"format", "ops"}, .counts = {"trials", "seed", "jobs"}});
    const fp::Format f = requireFormat(args, "format");
    verify::FuzzConfig cfg;
    cfg.trials = args.count("trials", 1000000);
    cfg.seed = args.count("seed", 1);
    cfg.jobs = args.jobs();
    const std::string ops = args.text("ops");
    std::istringstream in(ops);
    std::string name;
    while (std::getline(in, name, ',')) {
        const auto op = verify::parseVOp(name);
        if (!op)
            args.fail("unknown op '" + name + "'");
        cfg.ops.push_back(*op);
    }
    return runFuzz(f, cfg);
}

int
cmdCheck(int argc, char **argv)
{
    const cli::Args args = parseArgs(
        argc, argv,
        {.text = {"op", "format", "dst"}, .counts = {"a", "b", "c"}});
    Case c;
    c.op = requireOp(args);
    c.fmt = requireFormat(args, "format");
    if (c.op == VOp::Convert)
        c.dst = requireFormat(args, "dst");
    const char *names[] = {"a", "b", "c"};
    std::uint64_t *operands[] = {&c.a, &c.b, &c.c};
    for (unsigned i = 0; i < verify::vopArity(c.op); ++i) {
        if (!args.has(names[i]))
            args.fail(std::string("missing --") + names[i]);
        *operands[i] = args.count(names[i], 0);
    }

    const fp::Format rf = c.resultFormat();
    const std::uint64_t got = verify::runProduction(c);
    std::cout << "case:       " << verify::corpusLine(c) << "\n";
    std::cout << "production: " << fp::fpDescribe(rf, got) << "\n";
    const verify::OracleResult host = verify::hostOracle(c);
    std::cout << "host:       "
              << (host.supported ? fp::fpDescribe(rf, host.bits)
                                 : std::string("(unsupported)"))
              << "\n";
    const verify::OracleResult exact = verify::exactOracle(c);
    std::cout << "exact:      "
              << (exact.supported ? fp::fpDescribe(rf, exact.bits)
                                  : std::string("(unsupported)"))
              << "\n";
    std::cout << "host-gate:  "
              << fp::fpDescribe(rf, verify::runGated(c)) << "\n";
    std::vector<verify::Mismatch> found;
    verify::CheckOptions opts;
    const bool ok = verify::checkCase(c, opts, &found);
    for (const verify::Mismatch &m : found)
        std::cout << verify::describeMismatch(m) << "\n";
    std::cout << (ok ? "agreement\n" : "MISMATCH\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "quick")
        return cmdQuick(argc, argv);
    if (cmd == "sweep")
        return cmdSweep(argc, argv);
    if (cmd == "fuzz")
        return cmdFuzz(argc, argv);
    if (cmd == "corpus")
        return replayCorpus(corpusDir(
            parseArgs(argc, argv, {.text = {"corpus"}})));
    if (cmd == "check")
        return cmdCheck(argc, argv);
    cli::usageError(argv[0], kUsage,
                    cmd.empty() ? "missing subcommand"
                                : "unknown subcommand '" + cmd + "'");
}

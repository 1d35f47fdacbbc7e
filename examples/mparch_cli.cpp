/**
 * @file
 * mparch_cli — command-line frontend over the whole public API.
 *
 * Subcommands (flags: kUsage below, printed on any usage error):
 *
 *   study         Run the full reliability study (FIT, MEBF, TRE,
 *                 criticality) and print it as a result document;
 *                 --json/--csv write it too. With --journal every
 *                 campaign appends its trials to a journal under DIR;
 *                 --resume continues an interrupted study from those
 *                 journals; --batch sets records per flush.
 *   campaign      Run one injection campaign and print the outcome
 *                 accounting plus the fault-free run's op mix.
 *                 --jobs executes trials on N worker threads (0 =
 *                 all hardware threads, the default);
 *                 journals and results are byte-identical to --jobs 1
 *                 because outcomes are committed in index order.
 *                 --shards/--shard run an interleaved slice (trial i
 *                 belongs to shard i mod N); merged shard journals
 *                 reproduce the unsharded campaign exactly.
 *   replay-trial  Re-execute one journaled trial standalone and dump
 *                 its fault anatomy, outcome and agreement with the
 *                 journal record.
 *   beamplan      Size a (virtual) beam campaign the way the paper
 *                 sizes real ones: hours needed, natural-exposure
 *                 equivalence.
 *
 * Options accept "--opt value" and "--opt=value" (common/cli). Exit
 * code 0 on success; 1 when a campaign is refused or interrupted, a
 * study row's coverage is below 1, or a replay disagrees with its
 * journal; 2 on a usage error: an unknown subcommand or option, a
 * missing value, a malformed number, zero trials, a zero --scale,
 * --errors or --flux, a --scale above cli::kMaxScale, a shard count
 * of 0 or a shard index past it, --resume without --journal, or an
 * unknown name prints usage on stderr.
 *
 * Every subcommand prints its tables through report::ResultDoc, the
 * renderer the experiment registry uses.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "beam/exposure.hh"
#include "common/cli.hh"
#include "core/study.hh"
#include "fault/campaign.hh"
#include "fault/journal.hh"
#include "fault/supervisor.hh"
#include "nn/nn_workloads.hh"
#include "report/document.hh"
#include "report/study.hh"

namespace {

using namespace mparch;

const char *const kUsage =
    "usage: mparch_cli <study|campaign|replay-trial|beamplan>"
    " [--opt value ...]\n"
    "  study    --arch fpga|xeon-phi|gpu --workload NAME\n"
    "           [--precision double|single|half|bfloat16] [--trials N]\n"
    "           [--scale S] [--csv FILE] [--json FILE] [--journal DIR]\n"
    "           [--resume] [--batch N] [--jobs N]\n"
    "  campaign --workload NAME --precision P [--site memory|datapath]\n"
    "           [--model single-bit-flip|double-bit-flip|random-byte|\n"
    "                    random-value|word-burst] [--trials N]\n"
    "           [--scale S] [--journal DIR] [--resume] [--batch N]\n"
    "           [--shards N --shard I] [--jobs N]\n"
    "  replay-trial --journal FILE --trial N\n"
    "  beamplan --fit-per-hour R [--errors N] [--flux F]\n"
    "  --scale S: workload size factor, 0.2 by default; above 0 and"
    " at most 16\n"
    "  --jobs N: trial worker threads, 0 (default) = all hardware"
    " threads; at most 1024\n";

/** The enumerator @p parse finds for option @p option (@p fallback
 *  when absent); an unknown name is a usage error. */
template <typename Parse>
auto
parseName(const cli::Args &args, const std::string &option,
          const std::string &fallback, Parse parse)
{
    const std::string text = args.text(option, fallback);
    const auto value = parse(text);
    if (!value)
        args.fail("unknown " + option + " '" + text + "'");
    return *value;
}

/** --workload, checked against the table the workload factory
 *  dispatches from; an unknown name is a usage error. */
std::string
workloadName(const cli::Args &args)
{
    const std::string name = args.text("workload", "mxm");
    if (const std::string why = nn::workloadNameError(name); !why.empty())
        args.fail(why);
    return name;
}

int
cmdStudy(int argc, char **argv)
{
    const cli::Args args = cli::parse(
        {.usage = kUsage,
         .text = {"arch", "workload", "precision", "csv", "json",
                  "journal"},
         .counts = {"trials", "batch", "jobs"},
         .reals = {"scale"},
         .switches = {"resume"}},
        argc, argv, 2);
    core::StudyConfig config;
    config.arch =
        parseName(args, "arch", "gpu", core::parseArchitecture);
    config.workload = workloadName(args);
    config.trials = args.count("trials", 300);
    if (config.trials == 0)
        args.fail("--trials must be at least 1");
    config.scale = args.scale(0.2);
    if (args.has("precision")) {
        const fp::Precision p =
            parseName(args, "precision", "", fp::parsePrecision);
        if (!core::supportsPrecision(config.arch, p))
            args.fail(std::string(core::architectureName(config.arch)) +
                      " does not implement " +
                      std::string(fp::precisionName(p)) + " precision");
        config.precisions = {p};
    }
    config.journalDir = args.text("journal");
    config.resume = args.has("resume");
    if (config.resume && config.journalDir.empty())
        args.fail("--resume needs --journal DIR");
    config.batchSize = args.count("batch", 256);
    config.jobs = args.jobs();

    const core::StudyResult result = core::runStudy(config);
    const report::ResultDoc doc = report::studyDocument(result);
    std::cout << doc.title << "\n";
    doc.print(std::cout);

    const std::string json_path = args.text("json");
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            fatal("cannot write '", json_path, "'");
        doc.writeJson(out);
        std::cout << "wrote " << json_path << "\n";
    }

    const std::string csv_path = args.text("csv");
    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out)
            fatal("cannot write '", csv_path, "'");
        report::ResultDoc::writeCsv(doc.tables.front(), out);
        std::cout << "wrote " << csv_path << "\n";
    }
    // An interrupted or degraded campaign leaves its row partial.
    for (const auto &row : result.rows)
        if (row.coverage < 1.0)
            return 1;
    return 0;
}

int
cmdCampaign(int argc, char **argv)
{
    const cli::Args args = cli::parse(
        {.usage = kUsage,
         .text = {"workload", "precision", "site", "model", "journal"},
         .counts = {"trials", "batch", "shards", "shard", "jobs"},
         .reals = {"scale"},
         .switches = {"resume"}},
        argc, argv, 2);
    const std::string workload = workloadName(args);
    const fp::Precision precision =
        parseName(args, "precision", "single", fp::parsePrecision);
    const double scale = args.scale(0.2);
    auto w = nn::makeAnyWorkload(workload, precision, scale);

    fault::CampaignConfig config;
    config.trials = args.count("trials", 500);
    if (config.trials == 0)
        args.fail("--trials must be at least 1");
    config.model = parseName(args, "model", "single-bit-flip",
                             fault::parseFaultModel);
    config.recordAnatomy = true;

    const fault::CampaignKind kind =
        parseName(args, "site", "memory", fault::parseCampaignKind);
    if (kind == fault::CampaignKind::Persistent)
        args.fail("--site persistent needs engine allocations"
                  " (memory | datapath)");
    const std::string site = fault::campaignKindName(kind);

    fault::SupervisorConfig supervisor;
    supervisor.journalDir = args.text("journal");
    supervisor.resume = args.has("resume");
    if (supervisor.resume && supervisor.journalDir.empty())
        args.fail("--resume needs --journal DIR");
    supervisor.batchSize = args.count("batch", 256);
    supervisor.shardCount = args.count("shards", 1);
    supervisor.shardIndex = args.count("shard", 0);
    if (supervisor.shardCount == 0)
        args.fail("--shards must be at least 1");
    if (supervisor.shardIndex >= supervisor.shardCount)
        args.fail("--shard must be below --shards");
    supervisor.jobs = args.jobs();
    supervisor.handleSignals = true;

    const fault::SupervisedCampaign run =
        fault::runSupervisedCampaign(*w, kind, config, supervisor);
    fault::requireAccepted(run, *w, kind);
    const fault::CampaignResult &r = run.result;

    report::ResultDoc doc;
    auto &table = doc.addTable(
        workload + " / " + std::string(fp::precisionName(precision)) +
            " / " + site + " / " + fault::faultModelName(config.model),
        {"metric", "value"});
    const auto count = [&](const std::string &metric, std::uint64_t n) {
        table.row().cell(metric).cell(static_cast<std::int64_t>(n));
    };
    const Interval ci = r.avfSdc95();
    count("trials", r.trials);
    count("masked", r.masked);
    count("sdc", r.sdc);
    count("detected", r.detected);
    count("due", r.due);
    table.row().cell("avf-sdc").cell({r.avfSdc(), 4});
    table.row().cell("avf-sdc ci95-lo").cell({ci.lo, 4});
    table.row().cell("avf-sdc ci95-hi").cell({ci.hi, 4});
    table.row().cell("remaining @ TRE 0.1%").cell(
        {r.survivingFraction(1e-3), 4});
    table.row().cell("remaining @ TRE 1%").cell(
        {r.survivingFraction(1e-2), 4});
    table.row().cell("coverage").cell({run.coverage(), 4});
    count("poisoned", run.poisoned);
    if (run.resumed)
        count("resumed trials", run.resumed);
    // The fault-free run's op mix (a cache hit: the campaign ran it).
    const auto golden = fault::goldenRunFor(*w, config.inputSeed);
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(fp::OpKind::NumKinds); ++k) {
        const auto op = static_cast<fp::OpKind>(k);
        if (golden->ops.count(op))
            count(std::string("golden ops ") + fp::opKindName(op),
                  golden->ops.count(op));
    }
    doc.print(std::cout);
    if (!run.journalPath.empty())
        std::cout << "journal: " << run.journalPath << "\n";
    return run.interrupted ? 1 : 0;
}

int
cmdReplayTrial(int argc, char **argv)
{
    const cli::Args args = cli::parse(
        {.usage = kUsage, .text = {"journal"}, .counts = {"trial"}},
        argc, argv, 2);
    const std::string path = args.text("journal");
    if (path.empty())
        args.fail("replay-trial needs --journal FILE");
    const std::uint64_t index = args.count("trial", 0);

    std::string why;
    const auto journal = fault::readJournal(path, &why);
    if (!journal)
        fatal("cannot read '", path, "': ", why);

    auto w = nn::makeAnyWorkload(journal->header.workload,
                                 journal->header.precision,
                                 journal->header.scale);
    const fault::ReplayResult replay =
        fault::replayTrial(*w, *journal, index);
    if (!replay.error.empty())
        fatal(replay.error);

    report::ResultDoc doc;
    auto &table = doc.addTable("replay of trial " + std::to_string(index) +
                                   " from " + path,
                               {"metric", "value"});
    table.row().cell("workload").cell(journal->header.workload);
    table.row().cell("precision").cell(std::string(
        fp::precisionName(journal->header.precision)));
    table.row().cell("campaign kind").cell(
        fault::campaignKindName(journal->header.kind));
    table.row().cell("fault").cell(replay.trial.description);
    table.row().cell("outcome").cell(
        fault::outcomeKindName(replay.trial.outcome));
    if (replay.trial.outcome == fault::OutcomeKind::Sdc) {
        table.row().cell("max relative deviation").cell(
            {replay.trial.sdc.maxRel, 6});
        table.row().cell("corrupted fraction").cell(
            {replay.trial.sdc.corruptedFraction, 6});
    }
    if (replay.trial.hasAnatomy) {
        table.row().cell("flipped bit").cell(
            static_cast<std::int64_t>(replay.trial.anatomy.bit));
        table.row().cell("bit field").cell(
            fault::bitFieldName(replay.trial.anatomy.field));
    }
    if (replay.hasJournaled) {
        table.row().cell("journaled outcome").cell(
            fault::outcomeKindName(replay.journaled.outcome));
        table.row().cell("replay consistent").cell(
            replay.consistent ? "yes" : "NO");
        if (!replay.consistent)
            table.row().cell("first differing column").cell(
                replay.mismatch);
    } else {
        table.row().cell("journaled outcome").cell(
            "(not in journal — trial never completed)");
    }
    doc.print(std::cout);
    return replay.consistent ? 0 : 1;
}

int
cmdBeamPlan(int argc, char **argv)
{
    const cli::Args args = cli::parse(
        {.usage = kUsage, .reals = {"fit-per-hour", "errors", "flux"}},
        argc, argv, 2);
    const double rate = args.real("fit-per-hour", 0.0);
    if (rate <= 0.0)
        args.fail("beamplan needs --fit-per-hour > 0");
    const double errors = args.real("errors", 100.0);
    if (errors <= 0.0)
        args.fail("--errors must be greater than 0");
    const double flux = args.real("flux", 13.0 * 1e6);
    if (flux <= 0.0)
        args.fail("--flux must be greater than 0");

    const double hours = beam::beamHoursForErrors(rate, errors);
    const double acc = beam::accelerationFactor(flux);
    report::ResultDoc doc;
    auto &table =
        doc.addTable("beam campaign plan", {"quantity", "value"});
    table.row().cell("target errors").cell({errors, 0});
    table.row().cell("beam error rate [1/h]").cell({rate, 3});
    table.row().cell("beam hours needed").cell({hours, 1});
    table.row().cell("acceleration vs nature").cell({acc, 0});
    table.row().cell("natural years represented").cell(
        {beam::naturalYearsEquivalent(hours, acc), 0});
    doc.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "study")
        return cmdStudy(argc, argv);
    if (cmd == "campaign")
        return cmdCampaign(argc, argv);
    if (cmd == "replay-trial")
        return cmdReplayTrial(argc, argv);
    if (cmd == "beamplan")
        return cmdBeamPlan(argc, argv);
    cli::usageError(argv[0], kUsage,
                    cmd.empty() ? "missing subcommand"
                                : "unknown subcommand '" + cmd + "'");
}

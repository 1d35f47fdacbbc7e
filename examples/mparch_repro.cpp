/**
 * @file
 * mparch_repro — the registry-driven reproduction driver.
 *
 * The one front door to every experiment: enumerates, runs and
 * judges the declarative registry (all paper tables/figures, the
 * ablations and the extensions) with a machine-checked scorecard.
 *
 * Usage: mparch_repro [--list] [--filter <regex>] [--quick]
 *                     [--trials N] [--scale X] [--jobs N]
 *                     [--json <dir>] [--csv <dir>] [--scorecard]
 *                     [--no-progress]
 * (`mparch_repro --help` explains each option). `--filter
 * '^fig3_fpga_fit$'` runs one experiment; `--trials`/`--scale` 0
 * keep the per-experiment defaults, and `--scale` is at most
 * cli::kMaxScale; results are identical for every `--jobs`.
 *
 * Options accept both "--opt value" and "--opt=value" (common/cli).
 * An unknown option, a missing value or a malformed number prints
 * usage on stderr and exits 2, never a silent default. Exit 1 when
 * --scorecard finds a failed check or a --json/--csv file could not
 * be written.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "report/registry.hh"

namespace {

using namespace mparch;

const cli::Spec kSpec{
    .usage =
        "usage: mparch_repro [--list] [--filter <regex>] [--quick]\n"
        "       [--trials N] [--scale X] [--jobs N]\n"
        "       [--json <dir>] [--csv <dir>] [--scorecard]"
        " [--no-progress]\n"
        "\n"
        "  --list       list registered experiments and exit\n"
        "  --filter     run only experiments whose id matches the regex\n"
        "  --quick      only experiments flagged quick\n"
        "  --trials N   override injection trials (0 = per-experiment"
        " default)\n"
        "  --scale X    override workload scale (0 = default; at most"
        " 16)\n"
        "  --jobs N     campaign worker threads (0 = all hardware"
        " threads; at most 1024)\n"
        "  --json DIR   write one JSON document per experiment\n"
        "  --csv DIR    write one CSV file per result table\n"
        "  --scorecard  print the aggregate shape-check scorecard; exit"
        " non-zero\n"
        "               if any check failed\n"
        "  --no-progress  suppress campaign progress on stderr\n",
    .text = {"filter", "json", "csv"},
    .counts = {"trials", "jobs"},
    .reals = {"scale"},
    .switches = {"help", "list", "quick", "scorecard", "no-progress"},
};

/** Experiments selected by --filter/--quick, in registry order. */
std::vector<const report::Experiment *>
selectExperiments(const cli::Args &args)
{
    const std::string pattern = args.text("filter");
    std::regex filter;
    try {
        filter = std::regex(pattern);
    } catch (const std::regex_error &e) {
        args.fail("bad --filter regex '" + pattern + "': " + e.what());
    }
    std::vector<const report::Experiment *> selected;
    for (const auto &e : report::experiments()) {
        if (args.has("quick") && !e.quick)
            continue;
        if (!std::regex_search(e.id, filter))
            continue;
        selected.push_back(&e);
    }
    return selected;
}

void
listExperiments(const std::vector<const report::Experiment *> &sel)
{
    std::size_t id_width = 0;
    for (const auto *e : sel)
        id_width = std::max(id_width, e->id.size());
    for (const auto *e : sel) {
        std::cout << e->id
                  << std::string(id_width - e->id.size() + 2, ' ')
                  << "[" << report::experimentKindName(e->kind)
                  << (e->quick ? ", quick" : "") << "] "
                  << e->title << "\n"
                  << std::string(id_width + 2, ' ')
                  << "shape: " << e->shapeTarget << " ("
                  << e->checks.size() << " checks)\n";
    }
    std::cout << sel.size() << " experiments registered\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const cli::Args args = cli::parse(kSpec, argc, argv);
    const auto selected = selectExperiments(args);
    report::RunContext ctx;
    ctx.trials = args.count("trials", 0);
    ctx.scale = args.scale(0.0);
    ctx.jobs = args.jobs();
    ctx.progress = !args.has("no-progress");
    const std::string jsonDir = args.text("json");
    const std::string csvDir = args.text("csv");

    if (args.has("list")) {
        listExperiments(selected);
        return 0;
    }
    if (selected.empty()) {
        std::cerr << argv[0] << ": no experiment matches filter '"
                  << args.text("filter") << "'\n";
        return 2;
    }
    for (const std::string &dir : {jsonDir, csvDir}) {
        std::error_code ec;
        if (!dir.empty())
            std::filesystem::create_directories(dir, ec);
        if (ec) {
            std::cerr << argv[0] << ": cannot create directory '"
                      << dir << "'\n";
            return 2;
        }
    }

    std::vector<report::ResultDoc> docs;
    bool write_failed = false;
    const auto wrote = [&](const std::ofstream &out,
                           const std::string &path) {
        if (!out) {
            std::cerr << argv[0] << ": failed writing " << path << "\n";
            write_failed = true;
        }
    };
    for (const auto *e : selected) {
        std::cout << "\n=== " << e->id << " — " << e->title
                  << " ===\n"
                  << "shape target: " << e->shapeTarget << "\n";
        docs.push_back(report::runExperiment(*e, ctx));
        const auto &doc = docs.back();
        doc.print(std::cout);

        if (!jsonDir.empty()) {
            const std::string path = jsonDir + "/" + e->id + ".json";
            std::ofstream out(path);
            doc.writeJson(out);
            wrote(out, path);
        }
        if (!csvDir.empty()) {
            for (const auto &table : doc.tables) {
                const std::string path = csvDir + "/" + e->id + "." +
                                         table.name() + ".csv";
                std::ofstream out(path);
                report::ResultDoc::writeCsv(table, out);
                wrote(out, path);
            }
        }
    }

    bool failed = write_failed;
    if (args.has("scorecard")) {
        std::cout << "\n";
        failed |= !report::printScorecard(docs, std::cout).allPassed();
    }
    return failed ? 1 : 0;
}

/**
 * @file
 * Quickstart: evaluate the reliability of one benchmark on one
 * architecture across every precision it supports, using the
 * top-level study API.
 *
 *   $ ./quickstart [arch] [workload]
 *   arch     fpga | xeon-phi | gpu       (default gpu)
 *   workload mxm | lavamd | lud | micro-add | micro-mul | micro-fma
 *            | mnist | yolite            (default mxm)
 *
 * The report lists, per precision: SDC/DUE FIT (arbitrary units,
 * like the paper), the modelled execution time, the MEBF
 * reliability-performance tradeoff, the measured propagation
 * probabilities (datapath AVF and CAROL-FI-style PVF) and the
 * FIT-reduction-vs-TRE curve.
 *
 * An unknown architecture or workload, or a third argument, prints
 * usage on stderr and exits 2.
 */

#include <iostream>

#include "common/cli.hh"
#include "core/study.hh"
#include "nn/nn_workloads.hh"
#include "report/study.hh"

int
main(int argc, char **argv)
{
    using namespace mparch;

    const cli::Args args = cli::parse(
        {.usage = "usage: quickstart [fpga|xeon-phi|gpu] [workload]\n",
         .positionals = {cli::Kind::Text, cli::Kind::Text}},
        argc, argv);
    const std::string arch = args.positional(0, "gpu");
    const auto parsed = core::parseArchitecture(arch);
    if (!parsed)
        args.fail("unknown architecture '" + arch +
                  "' (want fpga | xeon-phi | gpu)");
    core::StudyConfig config;
    config.arch = *parsed;
    config.workload = args.positional(1, "mxm");
    if (const std::string why = nn::workloadNameError(config.workload);
        !why.empty())
        args.fail(why);
    config.trials = 300;
    config.scale = 0.2;

    std::cout << "Running " << config.workload << " on the simulated "
              << core::architectureName(config.arch) << " with "
              << config.trials
              << " injection trials per campaign...\n\n";

    const report::ResultDoc doc =
        report::studyDocument(core::runStudy(config));
    std::cout << doc.title << "\n";
    doc.print(std::cout);

    std::cout << "\nReading the report:\n"
              << " - fit-sdc/fit-due are in arbitrary units; compare "
                 "across precisions, not devices.\n"
              << " - mebf = 1 / (FIT x time): correct executions "
                 "completed per failure.\n"
              << " - the TRE table shows how much FIT remains once "
                 "output deviations up to the\n"
              << "   tolerated relative error count as acceptable "
                 "(the paper's criticality analysis).\n";
    return 0;
}

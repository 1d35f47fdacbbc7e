/**
 * @file
 * Drive the fault-injection layer directly, below the study API:
 * run CAROL-FI-style memory campaigns and functional-unit datapath
 * campaigns against one workload, print the Masked/SDC/DUE
 * accounting with confidence intervals, and show how the SDC corpus
 * feeds the TRE analysis.
 *
 *   $ ./injection_campaign [workload] [precision] [trials]
 *                          [--journal DIR] [--resume] [--batch N]
 *
 * With --journal each campaign appends its trials to a crash-safe
 * journal under DIR; --resume continues interrupted campaigns from
 * those journals (see docs/campaigns.md). An unknown option or
 * precision, or a malformed count, prints usage on stderr and exits
 * 2.
 *
 * This is the level to work at when adding a new fault model or a
 * new injection site class.
 */

#include <iostream>

#include "common/cli.hh"
#include "fault/campaign.hh"
#include "fault/supervisor.hh"
#include "metrics/metrics.hh"
#include "nn/nn_workloads.hh"

namespace {

using namespace mparch;

void
printCampaign(const char *title, const fault::CampaignResult &r)
{
    const Interval ci = r.avfSdc95();
    std::cout << title << ":\n"
              << "  trials " << r.trials << " | masked " << r.masked
              << " | sdc " << r.sdc << " | due " << r.due << "\n"
              << "  AVF(SDC) = " << r.avfSdc() << "  [" << ci.lo
              << ", " << ci.hi << "] (Wilson 95%)\n";
    std::cout << "  FIT remaining at TRE = {0, 0.1%, 1%, 10%}: ";
    for (double tre : {0.0, 1e-3, 1e-2, 1e-1})
        std::cout << r.survivingFraction(tre) << " ";
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mparch;

    const cli::Args args = cli::parse(
        {.usage = "usage: injection_campaign [workload]"
                  " [single|double|half] [trials]\n"
                  "                          [--journal DIR] [--resume]"
                  " [--batch N]\n",
         .text = {"journal"},
         .counts = {"batch"},
         .switches = {"resume"},
         .positionals = {cli::Kind::Text, cli::Kind::Text,
                         cli::Kind::Count}},
        argc, argv);
    const std::string workload = args.positional(0, "mxm");
    const std::string precisionName = args.positional(1, "single");
    fp::Precision precision = fp::Precision::Single;
    if (precisionName == "double")
        precision = fp::Precision::Double;
    else if (precisionName == "half")
        precision = fp::Precision::Half;
    else if (precisionName != "single")
        args.fail("unknown precision '" + precisionName + "'");
    fault::CampaignConfig config;
    config.trials = args.positionalCount(2, 500);

    fault::SupervisorConfig supervisor;
    supervisor.scale = 0.2;
    supervisor.handleSignals = true;
    supervisor.journalDir = args.text("journal");
    supervisor.resume = args.has("resume");
    supervisor.batchSize = args.count("batch", supervisor.batchSize);

    auto w = nn::makeAnyWorkload(workload, precision, 0.2);
    std::cout << "Workload " << w->name() << " at "
              << fp::precisionName(precision) << ", "
              << config.trials << " trials per campaign.\n\n";

    // A fault-free golden run also profiles the instruction mix.
    const fault::GoldenRun golden(*w, config.inputSeed);
    std::cout << "Golden run: " << golden.ops.totalOps()
              << " FP operations (";
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(fp::OpKind::NumKinds); ++k) {
        const auto kind = static_cast<fp::OpKind>(k);
        if (golden.ops.count(kind))
            std::cout << fp::opKindName(kind) << "="
                      << golden.ops.count(kind) << " ";
    }
    std::cout << "), " << golden.outputBits.size()
              << " output values.\n\n";

    // CAROL-FI protocol: corrupt a live variable at a random tick.
    printCampaign(
        "Memory campaign (CAROL-FI single bit flip)",
        fault::runCampaign(*w, fault::CampaignKind::Memory, config,
                           supervisor, "memory")
            .result);
    std::cout << "\n";

    // Beam-like: corrupt one datapath stage of one dynamic op.
    printCampaign(
        "Datapath campaign (functional-unit strike)",
        fault::runCampaign(*w, fault::CampaignKind::Datapath, config,
                           supervisor, "datapath")
            .result);
    std::cout << "\n";

    // Same, with the coarser CAROL-FI fault models.
    for (auto model :
         {fault::FaultModel::DoubleBitFlip,
          fault::FaultModel::RandomByte,
          fault::FaultModel::RandomValue}) {
        fault::CampaignConfig alt = config;
        alt.model = model;
        const std::string title =
            std::string("Memory campaign (") +
            fault::faultModelName(model) + ")";
        printCampaign(
            title.c_str(),
            fault::runCampaign(*w, fault::CampaignKind::Memory, alt,
                               supervisor,
                               std::string("memory-") +
                                   fault::faultModelName(model))
                .result);
        std::cout << "\n";
    }
    return 0;
}

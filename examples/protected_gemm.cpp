/**
 * @file
 * Protecting a kernel: wrap the GEMM in DWC, TMR or ABFT and watch
 * what each scheme does to the fault-injection outcome mix — the
 * follow-up question the paper's discussion leaves the reader with
 * ("lower precision is faster and fails rarer, but fails worse; what
 * does protection cost?").
 *
 *   $ ./protected_gemm [precision] [trials]
 *
 * An unknown precision or a malformed trial count prints usage on
 * stderr and exits 2.
 */

#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "fault/campaign.hh"
#include "mitigation/abft.hh"
#include "mitigation/replicated.hh"

int
main(int argc, char **argv)
{
    using namespace mparch;

    const cli::Args args = cli::parse(
        {.usage = "usage: protected_gemm [half|double|single|bfloat16]"
                  " [trials]\n",
         .positionals = {cli::Kind::Text, cli::Kind::Count}},
        argc, argv);
    const std::string precisionName = args.positional(0, "half");
    fp::Precision precision = fp::Precision::Half;
    if (precisionName == "double")
        precision = fp::Precision::Double;
    else if (precisionName == "single")
        precision = fp::Precision::Single;
    else if (precisionName == "bfloat16")
        precision = fp::Precision::Bfloat16;
    else if (precisionName != "half")
        args.fail("unknown precision '" + precisionName + "'");
    fault::CampaignConfig config;
    config.trials = args.positionalCount(1, 400);

    std::cout << "GEMM at " << fp::precisionName(precision)
              << " under CAROL-FI memory injection, "
              << config.trials << " trials per variant\n\n";

    struct Variant
    {
        const char *label;
        workloads::WorkloadPtr w;
    };
    std::vector<Variant> variants;
    variants.push_back(
        {"unprotected",
         workloads::makeWorkload("mxm", precision, 0.15)});
    variants.push_back(
        {"dwc (2x)", mitigation::makeReplicated(
                         mitigation::Redundancy::Dwc, "mxm",
                         precision, 0.15)});
    variants.push_back(
        {"tmr (3x)", mitigation::makeReplicated(
                         mitigation::Redundancy::Tmr, "mxm",
                         precision, 0.15)});
    variants.push_back(
        {"abft (~1.3x)", mitigation::makeAbftMxM(precision, 0.15)});

    Table table({"variant", "masked", "sdc", "detected", "due",
                 "critical(>1%) avf"});
    for (auto &variant : variants) {
        const auto r = fault::runMemoryCampaign(*variant.w, config);
        table.row()
            .cell(variant.label)
            .cell(static_cast<std::int64_t>(r.masked))
            .cell(static_cast<std::int64_t>(r.sdc))
            .cell(static_cast<std::int64_t>(r.detected))
            .cell(static_cast<std::int64_t>(r.due))
            .cell(r.avfSdc() * r.survivingFraction(0.01), 3);
    }
    table.print(std::cout);

    std::cout
        << "\nHow to read it:\n"
        << " - TMR's voter erases the fault (sdc -> masked) at 3x "
           "arithmetic;\n"
        << " - DWC can't correct, but converts silent corruption "
           "into detections;\n"
        << " - ABFT corrects single elements cheaply, yet its "
           "checksum tolerance must\n"
        << "   absorb rounding noise, which at low precision hides "
           "real corruption too\n"
        << "   (compare its critical column across precisions).\n";
    return 0;
}

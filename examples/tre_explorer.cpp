/**
 * @file
 * TRE explorer: how much FIT disappears if your application can
 * tolerate approximate outputs?
 *
 * For a chosen workload this sweeps the Tolerated Relative Error
 * from 0 to 10% at all three precisions, on both fault-site classes
 * (data at rest vs functional-unit datapaths), and prints where each
 * precision's acceptable-FIT curve crosses a target reduction — the
 * decision the paper's Section 7 asks system designers to make.
 *
 *   $ ./tre_explorer [workload] [trials]
 *
 * A malformed trial count prints usage on stderr and exits 2.
 */

#include <iostream>

#include "common/cli.hh"
#include "fault/campaign.hh"
#include "common/table.hh"
#include "metrics/metrics.hh"
#include "nn/nn_workloads.hh"

namespace {

using namespace mparch;

/** First threshold where the remaining FIT drops below @p target. */
double
crossover(const metrics::TreCurve &curve, double target)
{
    for (std::size_t i = 0; i < curve.thresholds.size(); ++i)
        if (curve.remaining[i] <= target)
            return curve.thresholds[i];
    return -1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mparch;
    const cli::Args args = cli::parse(
        {.usage = "usage: tre_explorer [workload] [trials]\n",
         .positionals = {cli::Kind::Text, cli::Kind::Count}},
        argc, argv);
    const std::string workload = args.positional(0, "mxm");
    fault::CampaignConfig config;
    config.trials = args.positionalCount(1, 600);

    std::cout << "TRE sweep for " << workload << " (" << config.trials
              << " trials per campaign)\n\n";

    for (const bool datapath : {false, true}) {
        Table table({"tre", "double", "single", "half"});
        table.setTitle(datapath
                           ? "functional-unit faults (beam-like)"
                           : "data-at-rest faults (CAROL-FI)");
        metrics::TreCurve curves[3];
        int idx = 0;
        for (auto p : fp::allPrecisions) {
            auto w = nn::makeAnyWorkload(workload, p, 0.2);
            const auto r =
                datapath ? fault::runDatapathCampaign(*w, config)
                         : fault::runMemoryCampaign(*w, config);
            curves[idx++] = metrics::treCurve(r);
        }
        for (std::size_t i = 0;
             i < curves[0].thresholds.size(); ++i) {
            table.row()
                .cell(curves[0].thresholds[i], 4)
                .cell(curves[0].remaining[i], 3)
                .cell(curves[1].remaining[i], 3)
                .cell(curves[2].remaining[i], 3);
        }
        table.print(std::cout);

        std::cout << "TRE needed to halve the critical FIT: ";
        const char *names[] = {"double", "single", "half"};
        for (int i = 0; i < 3; ++i) {
            const double c = crossover(curves[i], 0.5);
            std::cout << names[i] << "=";
            if (c < 0.0)
                std::cout << ">10% ";
            else
                std::cout << c * 100.0 << "% ";
        }
        std::cout << "\n\n";
    }

    std::cout << "Lesson (paper Figures 4/8/11): the wider the "
                 "format, the cheaper it is to buy\nreliability with "
                 "output tolerance — faults in narrow formats strike "
                 "significant bits.\n";
    return 0;
}

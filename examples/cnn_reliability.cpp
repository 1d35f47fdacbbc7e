/**
 * @file
 * CNN reliability walkthrough: train the digit classifier once in
 * double precision, convert the weights (without retraining) to each
 * target precision — the paper's protocol — then measure how
 * injected faults split into tolerable and critical errors, and run
 * the object detector through the same lens.
 *
 *   $ ./cnn_reliability [trials]
 *
 * A malformed trial count prints usage on stderr and exits 2.
 */

#include <iostream>

#include "common/cli.hh"
#include "fault/campaign.hh"
#include "common/table.hh"
#include "metrics/metrics.hh"
#include "nn/mnistnet.hh"
#include "nn/nn_workloads.hh"

namespace {

using namespace mparch;

template <fp::Precision P>
double
convertedAccuracy(std::size_t count)
{
    nn::MnistNet<P> net(nn::pretrainedMnist());
    nn::DigitGenerator gen(4242);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const nn::DigitSample s = gen.next();
        std::vector<fp::Fp<P>> image(s.pixels.size());
        for (std::size_t j = 0; j < s.pixels.size(); ++j)
            image[j] = fp::Fp<P>::fromDouble(s.pixels[j]);
        std::array<fp::Fp<P>, nn::kDigitClasses> logits{};
        net.infer(image, logits);
        correct += nn::argmaxLogits<P>(logits) == s.label;
    }
    return static_cast<double>(correct) / count;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mparch;
    const std::uint64_t trials =
        cli::parse({.usage = "usage: cnn_reliability [trials]\n",
                    .positionals = {cli::Kind::Count}},
                   argc, argv)
            .positionalCount(0, 600);

    std::cout << "Training the digit classifier (host double, SGD + "
                 "backprop)...\n";
    const double host_acc =
        nn::evaluateHostAccuracy(nn::pretrainedMnist(), 1000, 9);
    std::cout << "  host accuracy: " << host_acc << "\n\n";

    std::cout << "Converting weights without retraining (paper "
                 "Section 3.1):\n";
    const double acc_d =
        convertedAccuracy<fp::Precision::Double>(500);
    const double acc_s =
        convertedAccuracy<fp::Precision::Single>(500);
    const double acc_h = convertedAccuracy<fp::Precision::Half>(500);
    std::cout << "  accuracy double/single/half: " << acc_d << " / "
              << acc_s << " / " << acc_h
              << "  (paper: half loses < 2%)\n\n";

    std::cout << "Classifier under CAROL-FI injection (" << trials
              << " trials):\n";
    Table table({"precision", "avf-sdc", "tolerable", "critical"});
    for (auto p : fp::allPrecisions) {
        auto w = nn::makeNnWorkload("mnist", p, 0.5);
        fault::CampaignConfig config;
        config.trials = trials;
        const auto r = fault::runMemoryCampaign(*w, config);
        const auto split = metrics::criticalitySplit(r);
        table.row()
            .cell(std::string(fp::precisionName(p)))
            .cell(r.avfSdc(), 3)
            .cell(split.tolerable, 3)
            .cell(split.criticalChange + split.detectionChange, 3);
    }
    table.print(std::cout);
    std::cout << "(the critical share grows as precision shrinks — "
                 "Figure 3's finding)\n\n";

    std::cout << "Detector (YOLite) under injection:\n";
    Table dtable({"precision", "avf-sdc", "tolerable",
                  "detection-change", "class-change"});
    for (auto p : fp::allPrecisions) {
        auto w = nn::makeNnWorkload("yolite", p, 1.0);
        fault::CampaignConfig config;
        config.trials = trials;
        const auto r = fault::runMemoryCampaign(*w, config);
        const auto split = metrics::criticalitySplit(r);
        dtable.row()
            .cell(std::string(fp::precisionName(p)))
            .cell(r.avfSdc(), 3)
            .cell(split.tolerable, 3)
            .cell(split.detectionChange, 3)
            .cell(split.criticalChange, 3);
    }
    dtable.print(std::cout);
    std::cout << "(detection changes track integer positions, so "
                 "they depend less on precision — Figure 11c)\n";
    return 0;
}

/**
 * @file
 * Tests for the neural-network substrate: dataset determinism,
 * training quality, precision-conversion accuracy (the paper's <2%
 * claim), detector behaviour, and CNN fault-injection severities.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "fault/campaign.hh"
#include "nn/digits.hh"
#include "nn/mnistnet.hh"
#include "nn/nn_workloads.hh"
#include "nn/yolite.hh"
#include "test_util.hh"

namespace mparch::nn {
namespace {

using fp::Precision;
using workloads::SdcSeverity;

TEST(Digits, GeneratorIsDeterministic)
{
    DigitGenerator a(5), b(5);
    for (int i = 0; i < 20; ++i) {
        const DigitSample sa = a.next();
        const DigitSample sb = b.next();
        EXPECT_EQ(sa.label, sb.label);
        EXPECT_EQ(sa.pixels, sb.pixels);
    }
}

TEST(Digits, PixelsInRangeAndClassesCovered)
{
    DigitGenerator gen(6);
    std::set<std::size_t> seen;
    for (int i = 0; i < 200; ++i) {
        const DigitSample s = gen.next();
        seen.insert(s.label);
        for (double px : s.pixels) {
            EXPECT_GE(px, 0.0);
            EXPECT_LE(px, 1.0);
        }
    }
    EXPECT_EQ(seen.size(), kDigitClasses);
}

TEST(Digits, GlyphsAreWellFormed)
{
    for (const char *glyph : DigitGenerator::glyphs()) {
        ASSERT_EQ(std::string(glyph).size(), kDigitSize * kDigitSize);
        EXPECT_NE(std::string(glyph).find('#'), std::string::npos);
    }
}

TEST(MnistTraining, ReachesHighAccuracy)
{
    const MnistParams &params = pretrainedMnist();
    const double acc = evaluateHostAccuracy(params, 1000, 123);
    EXPECT_GT(acc, 0.95);
}

TEST(MnistTraining, Deterministic)
{
    TrainConfig config;
    config.samples = 200;
    config.epochs = 2;
    const MnistParams a = trainMnist(config);
    const MnistParams b = trainMnist(config);
    EXPECT_EQ(a.fc2W, b.fc2W);
    EXPECT_EQ(a.convW, b.convW);
}

TEST(MnistNetTest, SoftfloatDoubleMatchesHostArgmax)
{
    const MnistParams &params = pretrainedMnist();
    MnistNet<Precision::Double> net(params);
    DigitGenerator gen(9);
    for (int i = 0; i < 50; ++i) {
        const DigitSample s = gen.next();
        std::vector<fp::FpDouble> image(s.pixels.size());
        for (std::size_t j = 0; j < s.pixels.size(); ++j)
            image[j] = fp::FpDouble::fromDouble(s.pixels[j]);
        std::array<fp::FpDouble, kDigitClasses> logits{};
        net.infer(image, logits);
        const auto host = inferHost(params, s.pixels);
        const auto host_arg = static_cast<std::size_t>(
            std::max_element(host.begin(), host.end()) - host.begin());
        EXPECT_EQ(argmaxLogits<Precision::Double>(logits), host_arg);
        // Logits agree closely (softfloat FMA vs host mul/add).
        for (std::size_t c = 0; c < kDigitClasses; ++c)
            EXPECT_NEAR(logits[c].toDouble(), host[c], 1e-6);
    }
}

/** Accuracy of the converted net at precision P over fresh samples. */
template <Precision P>
double
convertedAccuracy(std::size_t count, std::uint64_t seed)
{
    MnistNet<P> net(pretrainedMnist());
    DigitGenerator gen(seed);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const DigitSample s = gen.next();
        std::vector<fp::Fp<P>> image(s.pixels.size());
        for (std::size_t j = 0; j < s.pixels.size(); ++j)
            image[j] = fp::Fp<P>::fromDouble(s.pixels[j]);
        std::array<fp::Fp<P>, kDigitClasses> logits{};
        net.infer(image, logits);
        correct += argmaxLogits<P>(logits) == s.label;
    }
    return static_cast<double>(correct) / static_cast<double>(count);
}

TEST(MnistNetTest, ConversionCostsUnderTwoPercent)
{
    // Paper Section 3.1: converting (not retraining) the weights to
    // half costs less than 2% accuracy.
    const double acc_d = convertedAccuracy<Precision::Double>(400, 31);
    const double acc_s = convertedAccuracy<Precision::Single>(400, 31);
    const double acc_h = convertedAccuracy<Precision::Half>(400, 31);
    EXPECT_GT(acc_d, 0.95);
    EXPECT_GE(acc_s, acc_d - 0.02);
    EXPECT_GE(acc_h, acc_d - 0.02);
}

TEST(Yolite, FilterBankIsZeroMeanUnitNorm)
{
    const std::vector<double> bank = yoliteFilterBank();
    ASSERT_EQ(bank.size(), kYoliteClasses * kShapeSize * kShapeSize);
    for (std::size_t cls = 0; cls < kYoliteClasses; ++cls) {
        double sum = 0.0, norm = 0.0;
        for (std::size_t i = 0; i < kShapeSize * kShapeSize; ++i) {
            const double v = bank[cls * kShapeSize * kShapeSize + i];
            sum += v;
            norm += v * v;
        }
        EXPECT_NEAR(sum, 0.0, 1e-9);
        EXPECT_NEAR(norm, 1.0, 1e-9);
    }
}

TEST(Yolite, SceneGeneratorPlacesNonOverlappingObjects)
{
    SceneGenerator gen(3);
    for (int i = 0; i < 100; ++i) {
        const Scene scene = gen.next();
        ASSERT_GE(scene.objects.size(), 1u);
        ASSERT_LE(scene.objects.size(), 2u);
        if (scene.objects.size() == 2) {
            const auto &a = scene.objects[0];
            const auto &b = scene.objects[1];
            const bool apart =
                std::abs(static_cast<long>(a.y) -
                         static_cast<long>(b.y)) > 5 ||
                std::abs(static_cast<long>(a.x) -
                         static_cast<long>(b.x)) > 5;
            EXPECT_TRUE(apart);
        }
    }
}

/** Detection quality of the precision-P detector on clean truth. */
template <Precision P>
double
detectorRecall(std::size_t scenes, std::uint64_t seed)
{
    YoliteNet<P> net;
    SceneGenerator gen(seed);
    const double threshold = yoliteThreshold();
    std::size_t found = 0, total = 0;
    for (std::size_t i = 0; i < scenes; ++i) {
        const Scene scene = gen.next();
        std::vector<fp::Fp<P>> image(scene.pixels.size());
        for (std::size_t j = 0; j < scene.pixels.size(); ++j)
            image[j] = fp::Fp<P>::fromDouble(scene.pixels[j]);
        std::vector<fp::Fp<P>> out;
        net.detect(image, out);
        std::array<double, kYoliteOut> host{};
        for (std::size_t j = 0; j < kYoliteOut; ++j)
            host[j] = out[j].toDouble();
        const auto dets = decodeDetections(host, threshold);
        total += scene.objects.size();
        for (const auto &obj : scene.objects) {
            for (const auto &det : dets) {
                const long py = det.pos / static_cast<long>(kMapSize);
                const long px = det.pos % static_cast<long>(kMapSize);
                if (det.cls == obj.cls &&
                    std::abs(py - static_cast<long>(obj.y)) <= 1 &&
                    std::abs(px - static_cast<long>(obj.x)) <= 1) {
                    ++found;
                    break;
                }
            }
        }
    }
    return total ? static_cast<double>(found) /
                       static_cast<double>(total)
                 : 0.0;
}

TEST(Yolite, DetectorFindsObjectsAtAllPrecisions)
{
    EXPECT_GT(detectorRecall<Precision::Double>(60, 21), 0.9);
    EXPECT_GT(detectorRecall<Precision::Single>(60, 21), 0.9);
    EXPECT_GT(detectorRecall<Precision::Half>(60, 21), 0.88);
}

TEST(NnWorkloads, FactoryAndDeterminism)
{
    for (const char *name : {"mnist", "yolite"}) {
        auto w = makeAnyWorkload(name, Precision::Single, 1.0);
        EXPECT_EQ(w->name(), name);
        const fault::GoldenRun a(*w, 3), b(*w, 3);
        EXPECT_EQ(a.outputBits, b.outputBits);
        EXPECT_GT(a.ops.count(fp::OpKind::Fma), 1000u);
    }
}

TEST(NnWorkloads, AnyFactoryCoversNumericToo)
{
    EXPECT_EQ(makeAnyWorkload("mxm", Precision::Half, 0.2)->name(),
              "mxm");
    EXPECT_EQ(makeAnyWorkload("mnist", Precision::Half)->name(),
              "mnist");
    EXPECT_EQ(findAnyWorkload("nosuch"), nullptr);
    EXPECT_EQ(workloadNameError("nosuch"), "unknown workload 'nosuch'");
    EXPECT_EQ(workloadNameError("mnist"), "");
}

TEST(NnWorkloads, MnistSeveritySplitsTolerableAndCritical)
{
    auto w = makeAnyWorkload("mnist", Precision::Single, 0.5);
    fault::CampaignConfig config;
    config.trials = 250;
    const fault::CampaignResult r = test::acceptedCampaign(
        *w, fault::CampaignKind::Memory, config);
    ASSERT_GT(r.sdc, 20u);
    const double tolerable =
        r.severityFraction(SdcSeverity::Tolerable);
    const double critical =
        r.severityFraction(SdcSeverity::CriticalChange);
    EXPECT_NEAR(tolerable + critical, 1.0, 1e-9);
    // Paper Figure 3: critical errors are the minority.
    EXPECT_GT(tolerable, critical);
    EXPECT_GT(critical, 0.0);
}

TEST(NnWorkloads, YoliteSeverityUsesAllThreeClasses)
{
    auto w = makeAnyWorkload("yolite", Precision::Half, 1.0);
    fault::CampaignConfig config;
    config.trials = 400;
    const fault::CampaignResult r = test::acceptedCampaign(
        *w, fault::CampaignKind::Memory, config);
    ASSERT_GT(r.sdc, 30u);
    const double tol = r.severityFraction(SdcSeverity::Tolerable);
    const double det =
        r.severityFraction(SdcSeverity::DetectionChange);
    const double crit =
        r.severityFraction(SdcSeverity::CriticalChange);
    EXPECT_NEAR(tol + det + crit, 1.0, 1e-9);
    EXPECT_GT(tol, 0.0);
    EXPECT_GT(det + crit, 0.0);
}

TEST(NnWorkloads, LowerPrecisionMoreCriticalErrors)
{
    // Paper Figure 3 / Section 4.1: the critical share grows as
    // precision shrinks (5% -> 14% -> 20% on the FPGA MNIST).
    fault::CampaignConfig config;
    config.trials = 500;
    auto wd = makeAnyWorkload("mnist", Precision::Double, 0.5);
    auto wh = makeAnyWorkload("mnist", Precision::Half, 0.5);
    const auto rd = test::acceptedCampaign(
        *wd, fault::CampaignKind::Memory, config);
    const auto rh = test::acceptedCampaign(
        *wh, fault::CampaignKind::Memory, config);
    ASSERT_GT(rd.sdc, 30u);
    ASSERT_GT(rh.sdc, 30u);
    EXPECT_GT(
        rh.severityFraction(SdcSeverity::CriticalChange),
        rd.severityFraction(SdcSeverity::CriticalChange));
}

} // namespace
} // namespace mparch::nn

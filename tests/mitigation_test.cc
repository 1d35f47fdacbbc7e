/**
 * @file
 * Tests for the mitigation substrate: DWC detection, TMR voting,
 * ABFT checksum correction, and their behaviour under the standard
 * injection campaigns.
 */

#include <gtest/gtest.h>

#include "fault/campaign.hh"
#include "mitigation/abft.hh"
#include "mitigation/replicated.hh"
#include "test_util.hh"
#include "workloads/mxm.hh"

namespace mparch::mitigation {
namespace {

using fp::Precision;
using workloads::ExecutionEnv;

TEST(Replicated, NameAndStructure)
{
    auto dwc = makeReplicated(Redundancy::Dwc, "mxm",
                              Precision::Single, 0.1);
    auto tmr = makeReplicated(Redundancy::Tmr, "mxm",
                              Precision::Single, 0.1);
    EXPECT_EQ(dwc->name(), "mxm-dwc");
    EXPECT_EQ(tmr->name(), "mxm-tmr");
    dwc->reset(1);
    tmr->reset(1);
    // DWC exposes 2x the buffers, TMR 3x.
    EXPECT_EQ(dwc->buffers().size(), 2 * 3u);
    EXPECT_EQ(tmr->buffers().size(), 3 * 3u);
}

TEST(Replicated, CleanRunMatchesUnprotected)
{
    auto plain = workloads::makeWorkload("mxm", Precision::Half, 0.1);
    auto tmr =
        makeReplicated(Redundancy::Tmr, "mxm", Precision::Half, 0.1);
    const fault::GoldenRun g_plain(*plain, 42);
    const fault::GoldenRun g_tmr(*tmr, 42);
    EXPECT_EQ(g_plain.outputBits, g_tmr.outputBits);
    EXPECT_FALSE(tmr->detectedError());
}

TEST(Replicated, DwcDetectsSingleReplicaCorruption)
{
    auto dwc = makeReplicated(Redundancy::Dwc, "mxm",
                              Precision::Single, 0.1);
    dwc->reset(7);
    // Corrupt one element of replica 0's input before running.
    auto views = dwc->buffers();
    ASSERT_EQ(views[0].name, "r0/A");
    views[0].set(3, views[0].get(3) ^ (1ULL << 30));
    ExecutionEnv env;
    dwc->execute(env);
    EXPECT_TRUE(dwc->detectedError());
}

TEST(Replicated, TmrVotesOutSingleReplicaCorruption)
{
    auto wrapped = makeReplicated(Redundancy::Tmr, "mxm",
                                  Precision::Single, 0.1);
    auto *tmr = dynamic_cast<ReplicatedWorkload *>(wrapped.get());
    ASSERT_NE(tmr, nullptr);
    const fault::GoldenRun golden(*wrapped, 7);

    wrapped->reset(7);
    auto views = wrapped->buffers();
    ASSERT_EQ(views[3].name, "r1/A");
    views[3].set(5, views[3].get(5) ^ (1ULL << 30));
    ExecutionEnv env;
    wrapped->execute(env);
    EXPECT_FALSE(wrapped->detectedError());
    EXPECT_GT(tmr->corrections(), 0u);
    // Voted output equals golden despite the corrupted replica.
    const auto out = wrapped->output();
    for (std::size_t i = 0; i < out.count; ++i)
        ASSERT_EQ(out.get(i), golden.outputBits[i]);
}

TEST(Replicated, CampaignSdcCollapsesUnderTmr)
{
    fault::CampaignConfig config;
    config.trials = 200;
    auto plain =
        workloads::makeWorkload("mxm", Precision::Single, 0.1);
    auto tmr = makeReplicated(Redundancy::Tmr, "mxm",
                              Precision::Single, 0.1);
    const auto r_plain = test::acceptedCampaign(
        *plain, fault::CampaignKind::Memory, config);
    const auto r_tmr = test::acceptedCampaign(
        *tmr, fault::CampaignKind::Memory, config);
    EXPECT_GT(r_plain.avfSdc(), 0.3);
    // A single memory fault hits one replica; the voter removes it.
    EXPECT_LT(r_tmr.avfSdc(), 0.02);
    EXPECT_EQ(r_tmr.masked + r_tmr.sdc + r_tmr.due + r_tmr.detected,
              r_tmr.trials);
}

TEST(Replicated, CampaignSdcBecomesDetectedUnderDwc)
{
    fault::CampaignConfig config;
    config.trials = 200;
    auto dwc = makeReplicated(Redundancy::Dwc, "mxm",
                              Precision::Single, 0.1);
    const auto r = test::acceptedCampaign(
        *dwc, fault::CampaignKind::Memory, config);
    // Mismatches are caught, not silently consumed.
    EXPECT_LT(r.avfSdc(), 0.02);
    EXPECT_GT(r.avfDetected(), 0.3);
}

TEST(Abft, CleanRunProducesNoCorrections)
{
    AbftMxMWorkload<Precision::Single> w(0.1);
    w.reset(3);
    ExecutionEnv env;
    w.execute(env);
    EXPECT_EQ(w.corrections(), 0u);
    EXPECT_FALSE(w.detectedError());
}

TEST(Abft, MatchesPlainMxmProduct)
{
    AbftMxMWorkload<Precision::Double> abft(0.1);
    workloads::MxMWorkload<Precision::Double> plain(0.1);
    const fault::GoldenRun ga(abft, 11);
    const fault::GoldenRun gp(plain, 11);
    EXPECT_EQ(ga.outputBits, gp.outputBits);
}

TEST(Abft, CorrectsSingleCorruptedElement)
{
    AbftMxMWorkload<Precision::Double> w(0.1);
    const fault::GoldenRun golden(w, 5);
    const std::size_t n = w.dim();

    // Flip a high mantissa bit of one C element after the compute
    // phase (tick n) but before verification: ABFT must locate and
    // repair it so the output matches golden to within the checksum
    // tolerance.
    w.reset(5);
    ExecutionEnv env;
    env.onTick = [&w, n](std::uint64_t tick) {
        if (tick == n) {
            auto c = w.buffers()[2];
            ASSERT_EQ(c.name, "C");
            c.set(n + 2, c.get(n + 2) ^ (1ULL << 50));
        }
    };
    w.execute(env);
    EXPECT_EQ(w.corrections(), 1u);
    EXPECT_FALSE(w.detectedError());
    const auto out = w.output();
    for (std::size_t i = 0; i < out.count; ++i) {
        const double got = fp::fpToDouble(fp::kDouble, out.get(i));
        const double want =
            fp::fpToDouble(fp::kDouble, golden.outputBits[i]);
        ASSERT_NEAR(got, want, 1e-9) << i;
    }
}

TEST(Abft, CampaignReducesCriticalSdcs)
{
    fault::CampaignConfig config;
    config.trials = 250;
    auto plain =
        workloads::makeWorkload("mxm", Precision::Single, 0.1);
    AbftMxMWorkload<Precision::Single> abft(0.1);
    const auto r_plain = test::acceptedCampaign(
        *plain, fault::CampaignKind::Memory, config);
    const auto r_abft = test::acceptedCampaign(
        abft, fault::CampaignKind::Memory, config);
    // ABFT converts large silent corruptions into corrections,
    // detections, or sub-tolerance residuals: the share of SDCs
    // exceeding 1% deviation must drop sharply.
    const double plain_critical =
        r_plain.avfSdc() * r_plain.survivingFraction(0.01);
    const double abft_critical =
        r_abft.avfSdc() * r_abft.survivingFraction(0.01);
    EXPECT_LT(abft_critical, 0.5 * plain_critical);
    EXPECT_GT(r_abft.detected + r_abft.masked, 0u);
}

TEST(Abft, HalfPrecisionToleranceIsLooser)
{
    // The checksum slack scales with the unit roundoff, so half
    // precision must accept (mask) more sub-tolerance corruption
    // than double: its detector fires less often per fault.
    fault::CampaignConfig config;
    config.trials = 250;
    AbftMxMWorkload<Precision::Double> wd(0.1);
    AbftMxMWorkload<Precision::Half> wh(0.1);
    const auto rd = test::acceptedCampaign(
        wd, fault::CampaignKind::Memory, config);
    const auto rh = test::acceptedCampaign(
        wh, fault::CampaignKind::Memory, config);
    const double caught_d = rd.avfDetected();
    const double caught_h = rh.avfDetected();
    // Both detectors work, but half's no better than double's.
    EXPECT_LE(caught_h, caught_d + 0.1);
}

} // namespace
} // namespace mparch::mitigation

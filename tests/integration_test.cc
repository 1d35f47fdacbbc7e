/**
 * @file
 * End-to-end integration tests: the paper's Section 7 "Discussion"
 * claims, asserted across the whole stack (workloads -> campaigns ->
 * architecture models -> metrics), plus the beam-planning helpers.
 */

#include <gtest/gtest.h>

#include "beam/exposure.hh"
#include "core/study.hh"

namespace mparch {
namespace {

using core::Architecture;
using core::StudyConfig;
using core::StudyResult;
using core::runStudy;
using fp::Precision;

StudyResult
quickStudy(Architecture arch, const std::string &workload)
{
    StudyConfig config;
    config.arch = arch;
    config.workload = workload;
    config.trials = 150;
    config.scale = 0.15;
    return runStudy(config);
}

/**
 * Section 7, claim 1: "if computing resources are tailored to data
 * precision, reduced precision reduces the FIT rate" — true on the
 * FPGA and (per-op) on the GPU; on the Phi the compiler's register
 * allocation can invert it.
 */
TEST(Section7, TailoredHardwareFitShrinksWithPrecision)
{
    for (auto arch : {Architecture::Fpga, Architecture::Gpu}) {
        const auto result = quickStudy(arch, "mxm");
        const auto *d = result.find(Precision::Double);
        const auto *h = result.find(Precision::Half);
        ASSERT_NE(d, nullptr);
        ASSERT_NE(h, nullptr);
        EXPECT_GT(d->fitSdc(), h->fitSdc())
            << core::architectureName(arch);
    }
    // Shared-hardware counter-case: Phi single FIT is *higher*.
    const auto phi = quickStudy(Architecture::XeonPhi, "mxm");
    EXPECT_GT(phi.find(Precision::Single)->fitSdc(),
              phi.find(Precision::Double)->fitSdc());
}

/**
 * Section 7, claim 2: "as a general result, reducing precision
 * increases the MEBF" — with the paper's own exception (Phi MxM).
 */
TEST(Section7, ReducedPrecisionRaisesMebf)
{
    for (auto arch : {Architecture::Fpga, Architecture::Gpu}) {
        const auto result = quickStudy(arch, "mxm");
        EXPECT_GT(result.find(Precision::Half)->mebf,
                  result.find(Precision::Double)->mebf)
            << core::architectureName(arch);
    }
    const auto phi_lud = quickStudy(Architecture::XeonPhi, "lud");
    EXPECT_GT(phi_lud.find(Precision::Single)->mebf,
              phi_lud.find(Precision::Double)->mebf);
    // The exception the paper calls out:
    const auto phi_mxm = quickStudy(Architecture::XeonPhi, "mxm");
    EXPECT_LT(phi_mxm.find(Precision::Single)->mebf,
              phi_mxm.find(Precision::Double)->mebf);
}

/**
 * Section 7, claim 3: "a fault in a double value is less likely to
 * significantly impact the output than a fault in single/half" — the
 * TRE curves must order double below single below half on the
 * tailored-hardware architectures.
 */
TEST(Section7, WiderFormatsAbsorbFaults)
{
    for (auto arch : {Architecture::Fpga, Architecture::Gpu}) {
        const auto result = quickStudy(arch, "mxm");
        const auto *d = result.find(Precision::Double);
        const auto *s = result.find(Precision::Single);
        const auto *h = result.find(Precision::Half);
        const auto remain = [](const arch::DeviceEvaluation *row) {
            return row->datapathCampaign.survivingFraction(1e-3);
        };
        EXPECT_LT(remain(d), remain(s)) << core::architectureName(arch);
        EXPECT_LE(remain(s), remain(h) + 0.05)
            << core::architectureName(arch);
    }
}

/**
 * Cross-architecture sanity: the same workload/precision yields
 * different absolute FIT per device (different inventories), but
 * every evaluation is internally consistent.
 */
TEST(Integration, EveryArchitectureProducesConsistentRows)
{
    for (auto arch : {Architecture::Fpga, Architecture::XeonPhi,
                      Architecture::Gpu}) {
        const auto result = quickStudy(arch, "lavamd");
        for (const auto &row : result.rows) {
            EXPECT_GE(row.fitSdc(), 0.0);
            EXPECT_GE(row.fitDue(), 0.0);
            EXPECT_GT(row.timeSeconds, 0.0);
            EXPECT_GT(row.mebf, 0.0);
            const fault::CampaignResult &dp = row.datapathCampaign;
            EXPECT_GE(dp.avfSdc(), 0.0);
            EXPECT_LE(dp.avfSdc(), 1.0);
            // 1.0 whenever any SDC occurred, 0.0 for an empty corpus.
            EXPECT_TRUE(dp.survivingFraction(0.0) == 1.0 ||
                        dp.survivingFraction(0.0) == 0.0);
        }
    }
}

TEST(BeamExposure, PaperCampaignArithmetic)
{
    // "8 orders of magnitude above 13 n/cm2h".
    const double acc = beam::accelerationFactor(13.0 * 1e6);
    EXPECT_DOUBLE_EQ(acc, 1e6);
    // "each configuration was tested for at least 100 hours, which
    // is equivalent to more than 11,000 years".
    EXPECT_NEAR(beam::naturalYearsEquivalent(100.0, 1e6), 11408.0,
                10.0);
    // Beam-time planning: 0.5 errors/hour, want 100 errors.
    EXPECT_DOUBLE_EQ(beam::beamHoursForErrors(0.5, 100.0), 200.0);
}

} // namespace
} // namespace mparch

/**
 * @file
 * Tests for the top-level study API.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "core/study.hh"
#include "fault/journal.hh"
#include "fault/model.hh"
#include "report/study.hh"

namespace mparch::core {
namespace {

using fp::Precision;

TEST(StudyConfigTest, SupportedPrecisions)
{
    EXPECT_EQ(supportedPrecisions(Architecture::Fpga).size(), 3u);
    EXPECT_EQ(supportedPrecisions(Architecture::Gpu).size(), 3u);
    const auto phi = supportedPrecisions(Architecture::XeonPhi);
    ASSERT_EQ(phi.size(), 2u);
    EXPECT_EQ(phi[0], Precision::Double);
    EXPECT_EQ(phi[1], Precision::Single);
}

TEST(StudyConfigTest, ArchitectureNames)
{
    EXPECT_STREQ(architectureName(Architecture::Fpga), "fpga");
    EXPECT_STREQ(architectureName(Architecture::XeonPhi), "xeon-phi");
    EXPECT_STREQ(architectureName(Architecture::Gpu), "gpu");
}

/** Every enumerator of @p E parses back from its name. Scoped enums
 *  count up from 0 and each name function answers "?" one past the
 *  last, so an enumerator the parser forgets cannot go unnoticed. */
template <typename E, typename Name, typename Parse>
void
expectNamesRoundTrip(Name name, Parse parse)
{
    int count = 0;
    for (; std::string_view(name(static_cast<E>(count))) != "?";
         ++count) {
        const E e = static_cast<E>(count);
        EXPECT_EQ(parse(name(e)), e) << name(e);
    }
    EXPECT_GT(count, 1);
    EXPECT_FALSE(parse("?"));
    EXPECT_FALSE(parse(""));
}

TEST(StudyConfigTest, EveryNameRoundTripsThroughItsParser)
{
    expectNamesRoundTrip<Architecture>(architectureName,
                                       parseArchitecture);
    expectNamesRoundTrip<Precision>(fp::precisionName,
                                    fp::parsePrecision);
    expectNamesRoundTrip<fault::FaultModel>(fault::faultModelName,
                                            fault::parseFaultModel);
    expectNamesRoundTrip<fault::CampaignKind>(fault::campaignKindName,
                                              fault::parseCampaignKind);
}

TEST(StudyRunTest, GpuStudyPopulatesAllRows)
{
    StudyConfig config;
    config.arch = Architecture::Gpu;
    config.workload = "micro-mul";
    config.trials = 80;
    config.scale = 0.1;
    const StudyResult result = runStudy(config);
    ASSERT_EQ(result.rows.size(), 3u);
    for (const auto &row : result.rows) {
        EXPECT_GT(row.fitSdc, 0.0);
        EXPECT_GT(row.timeSeconds, 0.0);
        EXPECT_GT(row.mebf, 0.0);
        EXPECT_GT(row.avfDatapath, 0.0);
        EXPECT_FALSE(row.tre.remaining.empty());
    }
    EXPECT_NE(result.find(Precision::Half), nullptr);
    EXPECT_EQ(result.find(Precision::Half)->precision,
              Precision::Half);
}

TEST(StudyRunTest, PhiStudySkipsHalf)
{
    StudyConfig config;
    config.arch = Architecture::XeonPhi;
    config.workload = "lud";
    config.trials = 60;
    config.scale = 0.1;
    const StudyResult result = runStudy(config);
    ASSERT_EQ(result.rows.size(), 2u);
    EXPECT_EQ(result.find(Precision::Half), nullptr);
    EXPECT_GT(result.rows[0].vectorRegisters, 0);
}

TEST(StudyRunTest, FpgaStudyReportsResources)
{
    StudyConfig config;
    config.arch = Architecture::Fpga;
    config.workload = "mxm";
    config.trials = 60;
    config.scale = 0.1;
    config.precisions = {Precision::Single};
    const StudyResult result = runStudy(config);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_GT(result.rows[0].luts, 0.0);
    EXPECT_GT(result.rows[0].dsps, 0.0);
    EXPECT_DOUBLE_EQ(result.rows[0].fitDue, 0.0);
}

TEST(StudyRunTest, ReportRendersEveryPrecision)
{
    StudyConfig config;
    config.arch = Architecture::Gpu;
    config.workload = "micro-add";
    config.trials = 50;
    config.scale = 0.1;
    const report::ResultDoc doc =
        report::studyDocument(runStudy(config));
    EXPECT_EQ(doc.title, "gpu / micro-add");
    std::ostringstream os;
    doc.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("double"), std::string::npos);
    EXPECT_NE(text.find("single"), std::string::npos);
    EXPECT_NE(text.find("half"), std::string::npos);
    EXPECT_NE(text.find("FIT reduction"), std::string::npos);
}

TEST(StudyRunTest, DeterministicAcrossRuns)
{
    StudyConfig config;
    config.arch = Architecture::Gpu;
    config.workload = "micro-fma";
    config.trials = 60;
    config.scale = 0.1;
    config.precisions = {Precision::Single};
    const StudyResult a = runStudy(config);
    const StudyResult b = runStudy(config);
    EXPECT_DOUBLE_EQ(a.rows[0].fitSdc, b.rows[0].fitSdc);
    EXPECT_DOUBLE_EQ(a.rows[0].avfDatapath, b.rows[0].avfDatapath);
}

} // namespace
} // namespace mparch::core

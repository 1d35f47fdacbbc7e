/**
 * @file
 * Tests for the top-level study API.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>

#include "arch/fpga/fpga.hh"
#include "arch/gpu/gpu.hh"
#include "arch/phi/phi.hh"
#include "common/memo.hh"
#include "core/study.hh"
#include "fault/campaign.hh"
#include "fault/journal.hh"
#include "fault/model.hh"
#include "nn/nn_workloads.hh"
#include "report/study.hh"
#include "workloads/mxm.hh"
#include "test_util.hh"

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
    // Beyond the defaults: bfloat16 runs wherever the model has it.
    EXPECT_TRUE(supportsPrecision(Architecture::Gpu, Precision::Bfloat16));
    EXPECT_TRUE(supportsPrecision(Architecture::Fpga, Precision::Bfloat16));
    EXPECT_FALSE(supportsPrecision(Architecture::XeonPhi, Precision::Half));
    EXPECT_FALSE(
        supportsPrecision(Architecture::XeonPhi, Precision::Bfloat16));
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
        EXPECT_GT(row.fitSdc(), 0.0);
        EXPECT_GT(row.timeSeconds, 0.0);
        EXPECT_GT(row.mebf, 0.0);
        EXPECT_GT(row.datapathCampaign.avfSdc(), 0.0);
        // The row keeps the SDC corpus its TRE curve is read from.
        EXPECT_EQ(row.datapathCampaign.corpus.size(),
                  row.datapathCampaign.sdc);
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
    EXPECT_EQ(result.rows[1].precision, Precision::Single);
}

TEST(StudyRunTest, FpgaStudyHasNoDue)
{
    StudyConfig config;
    config.arch = Architecture::Fpga;
    config.workload = "mxm";
    config.trials = 60;
    config.scale = 0.1;
    config.precisions = {Precision::Single};
    const StudyResult result = runStudy(config);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_GT(result.rows[0].fitSdc(), 0.0);
    EXPECT_DOUBLE_EQ(result.rows[0].fitDue(), 0.0);
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
    EXPECT_DOUBLE_EQ(a.rows[0].fitSdc(), b.rows[0].fitSdc());
    EXPECT_DOUBLE_EQ(a.rows[0].datapathCampaign.avfSdc(),
                     b.rows[0].datapathCampaign.avfSdc());
}

/** Field-by-field equality of two device evaluations: campaign
 *  tallies and corpora, inventory entries and the modelled figures
 *  (doubles exactly). */
void
expectSameEvaluation(const arch::DeviceEvaluation &x,
                     const arch::DeviceEvaluation &y)
{
    EXPECT_EQ(x.precision, y.precision);
    test::expectSameResult(x.datapathCampaign, y.datapathCampaign);
    test::expectSameResult(x.memoryCampaign, y.memoryCampaign);
    EXPECT_EQ(x.inventory.node, y.inventory.node);
    ASSERT_EQ(x.inventory.entries.size(), y.inventory.entries.size());
    for (std::size_t i = 0; i < x.inventory.entries.size(); ++i) {
        const beam::ResourceEntry &a = x.inventory.entries[i];
        const beam::ResourceEntry &b = y.inventory.entries[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.bitClass, b.bitClass);
        EXPECT_EQ(a.bits, b.bits);
        EXPECT_EQ(a.avfSdc, b.avfSdc);
        EXPECT_EQ(a.avfDue, b.avfDue);
    }
    EXPECT_EQ(x.timeSeconds, y.timeSeconds);
    EXPECT_EQ(x.mebf, y.mebf);
    EXPECT_EQ(x.coverage, y.coverage);
    EXPECT_EQ(x.poisoned, y.poisoned);
}

/** Row-by-row equality of two studies. */
void
expectSameRows(const StudyResult &a, const StudyResult &b)
{
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i)
        expectSameEvaluation(a.rows[i], b.rows[i]);
}

/** A Xeon Phi study small enough to run several times per test. */
StudyConfig
memoStudy()
{
    StudyConfig config;
    config.arch = Architecture::XeonPhi;
    config.workload = "mxm";
    config.trials = 40;
    config.scale = 0.1;
    config.jobs = 1;
    return config;
}

TEST(StudyMemoTest, RepeatAndRecomputeAfterClearAgree)
{
    common::clearMemos();
    const StudyResult first = runStudy(memoStudy());
    const StudyResult repeat = runStudy(memoStudy());
    common::clearMemos();
    const StudyResult recomputed = runStudy(memoStudy());
    EXPECT_FALSE(first.rows[0].datapathCampaign.corpus.empty());
    expectSameRows(first, repeat);
    expectSameRows(first, recomputed);
}

TEST(StudyMemoTest, ClearingTheGoldenCacheEmptiesTheMemo)
{
    // A memo hit runs no campaign, so it leaves the golden-run cache
    // empty; a recomputed study fills it. Probe the study's cache key
    // with a workload of another size stamped with the study's
    // identity: a filled entry hands back the study's golden run, an
    // empty one runs the probe's own.
    const StudyConfig config = memoStudy();
    common::clearMemos();
    runStudy(config);
    common::clearMemos();
    runStudy(config);

    auto probe = workloads::stamped(
        std::make_unique<workloads::MxMWorkload<Precision::Double>>(0.2),
        config.scale);
    auto study = workloads::makeWorkload("mxm", Precision::Double,
                                         config.scale);
    const fault::CampaignConfig defaults;
    const std::uint64_t study_ticks =
        fault::GoldenRun(*study, defaults.inputSeed).ticks;
    ASSERT_NE(fault::GoldenRun(*probe, defaults.inputSeed).ticks,
              study_ticks);
    EXPECT_EQ(fault::goldenRunFor(*probe, defaults.inputSeed)->ticks,
              study_ticks);
    common::clearMemos();
}

TEST(StudyMemoTest, HitCarriesTheCallersJobs)
{
    StudyConfig config = memoStudy();
    const StudyResult serial = runStudy(config);
    config.jobs = 4;
    const StudyResult hit = runStudy(config);
    EXPECT_EQ(serial.config.jobs, 1u);
    EXPECT_EQ(hit.config.jobs, 4u);
    expectSameRows(serial, hit);
}

TEST(StudyMemoTest, DefaultPrecisionsEqualTheExplicitList)
{
    StudyConfig implicit = memoStudy();
    StudyConfig explicit_list = memoStudy();
    explicit_list.precisions = supportedPrecisions(explicit_list.arch);
    common::clearMemos();
    const StudyResult a = runStudy(implicit);
    common::clearMemos();
    const StudyResult b = runStudy(explicit_list);
    const StudyResult hit = runStudy(implicit);
    EXPECT_EQ(a.rows.size(), 2u);
    EXPECT_TRUE(hit.config.precisions.empty());
    expectSameRows(a, b);
    expectSameRows(a, hit);
}

/** Test name of a per-architecture case: the architecture's name
 *  with '_' for '-'. */
struct ArchParamName
{
    template <typename Param>
    std::string
    operator()(const ::testing::TestParamInfo<Param> &info) const
    {
        std::string name = architectureName(info.param.arch);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    }
};

/** One architecture and the campaign kinds its study journals. */
struct ArchJournals
{
    Architecture arch;
    std::vector<std::string> kinds;
};

void
PrintTo(const ArchJournals &param, std::ostream *os)
{
    *os << architectureName(param.arch);
}

class StudyJournalTest : public ::testing::TestWithParam<ArchJournals>
{
};

TEST_P(StudyJournalTest, JournaledStudyStillWritesItsJournals)
{
    StudyConfig config = memoStudy();
    config.arch = GetParam().arch;
    config.precisions = {Precision::Double, Precision::Single};
    const StudyResult plain = runStudy(config);
    const std::string dir = test::tempPath("journals");
    std::filesystem::remove_all(dir);
    config.journalDir = dir;
    const StudyResult journaled = runStudy(config);
    expectSameRows(plain, journaled);

    // One journal per campaign, named <workload>-<precision>-<kind>.
    std::set<std::string> expected, written;
    for (const char *precision : {"double", "single"})
        for (const std::string &kind : GetParam().kinds)
            expected.insert("mxm-" + std::string(precision) + "-" +
                            kind + ".mpj");
    const std::filesystem::path arch_dir =
        std::filesystem::path(dir) / architectureName(config.arch);
    for (const auto &entry :
         std::filesystem::directory_iterator(arch_dir)) {
        EXPECT_FALSE(test::slurp(entry.path().string()).empty());
        written.insert(entry.path().filename().string());
    }
    EXPECT_EQ(written, expected);
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    PerArch, StudyJournalTest,
    ::testing::Values(
        ArchJournals{Architecture::Fpga, {"persistent", "memory"}},
        ArchJournals{Architecture::XeonPhi, {"memory", "datapath"}},
        ArchJournals{Architecture::Gpu, {"datapath", "memory"}}),
    ArchParamName());

TEST(StudyJournalDeathTest, ResumeWithOtherTrialsIsFatal)
{
    // A resumed study whose journals disagree with its configuration
    // stops instead of reporting all-zero rows.
    StudyConfig config = memoStudy();
    config.precisions = {Precision::Single};
    config.journalDir = test::tempPath("journals");
    std::filesystem::remove_all(config.journalDir);
    runStudy(config);
    config.resume = true;
    config.trials += 10;
    EXPECT_EXIT(runStudy(config), ::testing::ExitedWithCode(1),
                "refusing to resume");
    std::filesystem::remove_all(config.journalDir);
}

/** One device model and the campaigns a study runs through it. */
struct DeviceContract
{
    Architecture arch;
    arch::DeviceEvaluation (*evaluate)(workloads::Workload &,
                                       const arch::DeviceOptions &);
    /** Journal name of the campaign that fills datapathCampaign. */
    const char *datapathKind;
    /** Memory-campaign trials of a study with kContractTrials. */
    std::uint64_t memoryTrials;
};

constexpr std::uint64_t kContractTrials = 20;

void
PrintTo(const DeviceContract &param, std::ostream *os)
{
    *os << architectureName(param.arch);
}

class DeviceContractTest : public ::testing::TestWithParam<DeviceContract>
{
};

TEST_P(DeviceContractTest, StudyRowCopiesTheDeviceEvaluation)
{
    const DeviceContract &device = GetParam();
    StudyConfig config;
    config.arch = device.arch;
    config.workload = "mxm";
    config.precisions = {Precision::Single};
    config.scale = 0.1;
    config.trials = kContractTrials;
    config.jobs = 1;
    config.journalDir = test::tempPath("journals");
    std::filesystem::remove_all(config.journalDir);
    const StudyResult study = runStudy(config);
    ASSERT_EQ(study.rows.size(), 1u);
    const arch::DeviceEvaluation &row = study.rows[0];

    // The study's campaigns ran the trials its policy gives them.
    const std::string prefix = config.journalDir + "/" +
                               architectureName(config.arch) +
                               "/mxm-single-";
    const auto datapath_journal = fault::readJournal(
        prefix + device.datapathKind + ".mpj");
    const auto memory_journal = fault::readJournal(prefix + "memory.mpj");
    ASSERT_TRUE(datapath_journal && memory_journal);
    EXPECT_EQ(datapath_journal->header.config.trials, kContractTrials);
    EXPECT_EQ(memory_journal->header.config.trials, device.memoryTrials);
    std::filesystem::remove_all(config.journalDir);

    // The same options through the device model give the row.
    auto w = nn::makeAnyWorkload(config.workload, Precision::Single,
                                 config.scale);
    arch::DeviceOptions options;
    options.datapathTrials = kContractTrials;
    options.memoryTrials = device.memoryTrials;
    options.seed = config.seed;
    const arch::DeviceEvaluation eval = device.evaluate(*w, options);
    EXPECT_EQ(eval.datapathCampaign.trials, kContractTrials);
    EXPECT_EQ(eval.memoryCampaign.trials, device.memoryTrials);
    // The memory campaign keeps its tallies, not its SDC corpus.
    EXPECT_GT(eval.memoryCampaign.sdc, 0u);
    EXPECT_TRUE(eval.memoryCampaign.corpus.empty());
    expectSameEvaluation(row, eval);
}

INSTANTIATE_TEST_SUITE_P(
    PerArch, DeviceContractTest,
    ::testing::Values(
        DeviceContract{Architecture::Fpga, fpga::evaluateFpga,
                       "persistent", kContractTrials / 2 + 1},
        DeviceContract{Architecture::XeonPhi, phi::evaluatePhi,
                       "datapath", kContractTrials},
        DeviceContract{Architecture::Gpu, gpu::evaluateGpu, "datapath",
                       kContractTrials / 2 + 1}),
    ArchParamName());

TEST(StudyMemoTest, ConcurrentCallersAgree)
{
    // A GPU study, so both callers also share the memoised
    // control-AVF simulation.
    common::clearMemos();
    StudyConfig config = memoStudy();
    config.arch = Architecture::Gpu;
    config.workload = "micro-mul";
    config.precisions = {Precision::Single};
    StudyResult a, b;
    std::thread ta([&] { a = runStudy(config); });
    std::thread tb([&] { b = runStudy(config); });
    ta.join();
    tb.join();
    expectSameRows(a, b);
    expectSameRows(a, runStudy(config));
}

} // namespace
} // namespace mparch::core

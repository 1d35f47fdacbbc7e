/**
 * @file
 * Helpers shared by the campaign-engine tests.
 *
 * gtest_discover_tests runs every TEST as its own ctest process and
 * `ctest -j` runs those processes concurrently, so two tests writing
 * one fixed name under testing::TempDir() read each other's files.
 * tempPath() puts the running test's suite and name plus the process
 * id into the file name, keeping concurrent tests apart.
 */

#ifndef MPARCH_TESTS_TEST_UTIL_HH
#define MPARCH_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/supervisor.hh"

namespace mparch::test {

/**
 * <TempDir>/<suite>.<test>.<pid>.<name>, unique per test process.
 * Parameterised suite and test names contain '/'; it becomes '_', so
 * the path stays one entry directly under TempDir and removing it
 * leaves nothing behind.
 */
inline std::string
tempPath(const std::string &name)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string unique = std::to_string(::getpid()) + "." + name;
    if (info != nullptr) {
        std::string test = std::string(info->test_suite_name()) + "." +
                           info->name();
        std::replace(test.begin(), test.end(), '/', '_');
        unique = test + "." + unique;
    }
    return (std::filesystem::path(::testing::TempDir()) / unique)
        .string();
}

/** Whole file as bytes ("" when unreadable). */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * One campaign through fault::runSupervisedCampaign with the default
 * supervisor. A refused campaign fails the calling test: its empty
 * result would otherwise pass most comparisons without testing them.
 */
inline fault::CampaignResult
acceptedCampaign(workloads::Workload &w, fault::CampaignKind kind,
                 const fault::CampaignConfig &config,
                 fp::OpKind kind_filter = fp::OpKind::NumKinds,
                 const std::vector<fault::EngineAllocation> &engines = {})
{
    const fault::SupervisedCampaign run = fault::runSupervisedCampaign(
        w, kind, config, fault::SupervisorConfig{}, kind_filter, engines);
    EXPECT_TRUE(run.error.empty()) << "campaign refused: " << run.error;
    return run.result;
}

/** Tally-level equality (corpus and anatomy compared element-wise). */
inline void
expectSameResult(const fault::CampaignResult &a,
                 const fault::CampaignResult &b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.due, b.due);
    EXPECT_EQ(a.detected, b.detected);
    ASSERT_EQ(a.corpus.size(), b.corpus.size());
    for (std::size_t i = 0; i < a.corpus.size(); ++i) {
        EXPECT_EQ(a.corpus[i].maxRel, b.corpus[i].maxRel);
        EXPECT_EQ(a.corpus[i].corruptedFraction,
                  b.corpus[i].corruptedFraction);
        EXPECT_EQ(a.corpus[i].severity, b.corpus[i].severity);
    }
    ASSERT_EQ(a.anatomy.size(), b.anatomy.size());
    for (std::size_t i = 0; i < a.anatomy.size(); ++i) {
        EXPECT_EQ(a.anatomy[i].bit, b.anatomy[i].bit);
        EXPECT_EQ(a.anatomy[i].field, b.anatomy[i].field);
        EXPECT_EQ(a.anatomy[i].outcome, b.anatomy[i].outcome);
    }
}

} // namespace mparch::test

#endif // MPARCH_TESTS_TEST_UTIL_HH

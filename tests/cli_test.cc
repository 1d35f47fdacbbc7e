/**
 * @file
 * Tests for the strict command-line parser (common/cli): both option
 * forms, switches, repeatable values, typed positionals, and every
 * rejection path — unknown flags, missing values, malformed or
 * negative numbers — ending in usage on stderr and exit code 2.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hh"

namespace mparch::cli {
namespace {

const Spec kSpec{
    .usage = "usage: prog [--trials N] [--scale X] [--journal DIR]"
             " [--resume] [--rule R]... [trials]\n",
    .text = {"journal"},
    .counts = {"trials"},
    .reals = {"scale"},
    .switches = {"resume"},
    .repeatable = {"rule"},
    .positionals = {Kind::Count},
};

/** The parsed line; a rejection fails the test via the exception. */
Args
accepted(const std::vector<std::string> &line)
{
    std::string error;
    auto args = Args::tryParse(kSpec, line, &error);
    if (!args)
        throw std::runtime_error(error);
    return *args;
}

/** The rejection message, or "" when the line parses. */
std::string
rejection(const std::vector<std::string> &line)
{
    std::string error;
    return Args::tryParse(kSpec, line, &error) ? "" : error;
}

TEST(CliParseCount, AcceptsWholeDecimalAndHex)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseCount("18446744073709551615", &v));
    EXPECT_EQ(v, 18446744073709551615u);
    EXPECT_TRUE(parseCount("0x3c00", &v));
    EXPECT_EQ(v, 0x3c00u);
    EXPECT_TRUE(parseCount("0", &v));
    EXPECT_EQ(v, 0u);
}

TEST(CliParseCount, RejectsJunk)
{
    std::uint64_t v = 7;
    for (const char *bad : {"", "abc", "12abc", "-1", "+1", " 1", "1 ",
                            "1.5", "0x", "0xg", "18446744073709551616"})
        EXPECT_FALSE(parseCount(bad, &v)) << bad;
    EXPECT_EQ(v, 7u);
}

TEST(CliParseReal, AcceptsFiniteNonNegativeAndRejectsTheRest)
{
    double v = -1.0;
    EXPECT_TRUE(parseReal("0.25", &v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_TRUE(parseReal(".5", &v));
    EXPECT_TRUE(parseReal("1e7", &v));
    EXPECT_DOUBLE_EQ(v, 1e7);
    for (const char *bad : {"", "-0.5", "+1", " 1", "1x", "abc", "inf",
                            "nan", "1e999"})
        EXPECT_FALSE(parseReal(bad, &v)) << bad;
    EXPECT_DOUBLE_EQ(v, 1e7);
}

TEST(CliArgs, SpaceAndEqualsFormsAgree)
{
    for (const auto &line :
         {std::vector<std::string>{"--trials", "50", "--scale", "0.1"},
          std::vector<std::string>{"--trials=50", "--scale=0.1"}}) {
        const Args args = accepted(line);
        EXPECT_EQ(args.count("trials", 500), 50u);
        EXPECT_DOUBLE_EQ(args.real("scale", 0.2), 0.1);
    }
}

TEST(CliArgs, AbsentOptionsFallBack)
{
    const Args args = accepted({});
    EXPECT_EQ(args.count("trials", 500), 500u);
    EXPECT_DOUBLE_EQ(args.real("scale", 0.2), 0.2);
    EXPECT_EQ(args.text("journal", "none"), "none");
    EXPECT_FALSE(args.has("resume"));
    EXPECT_TRUE(args.all("rule").empty());
    EXPECT_EQ(args.positionalCount(0, 9), 9u);
}

TEST(CliArgs, BooleanSwitch)
{
    const Args args = accepted({"--resume", "--journal", "dir"});
    EXPECT_TRUE(args.has("resume"));
    EXPECT_EQ(args.text("journal"), "dir");
    EXPECT_EQ(rejection({"--resume=1"}), "--resume takes no value");
}

TEST(CliArgs, RepeatedValuesKeepOrder)
{
    EXPECT_EQ(accepted({"--rule", "a", "--rule=b", "--rule", "c"})
                  .all("rule"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(rejection({"--trials", "5", "--trials=6"}),
              "--trials given more than once");
}

TEST(CliArgs, UnknownFlagIsRejected)
{
    EXPECT_EQ(rejection({"--trails", "50"}),
              "unknown option '--trails'");
    EXPECT_EQ(rejection({"-t"}), "unknown option '-t'");
    EXPECT_EQ(rejection({"--help"}), "unknown option '--help'");
}

TEST(CliArgs, MissingValueIsRejected)
{
    EXPECT_EQ(rejection({"--journal"}), "--journal needs a value");
    EXPECT_EQ(rejection({"--trials", "--resume"}),
              "--trials needs a value");
}

TEST(CliArgs, MalformedNumbersAreRejected)
{
    EXPECT_EQ(rejection({"--trials", "abc"}),
              "--trials must be a count, got 'abc'");
    EXPECT_EQ(rejection({"--trials=12abc"}),
              "--trials must be a count, got '12abc'");
    EXPECT_EQ(rejection({"--scale", "-0.5"}),
              "--scale must be a non-negative number, got '-0.5'");
    EXPECT_EQ(rejection({"--scale="}),
              "--scale must be a non-negative number, got ''");
}

TEST(CliArgs, PositionalsAreTypedAndBounded)
{
    EXPECT_EQ(accepted({"40", "--resume"}).positionalCount(0, 9), 40u);
    EXPECT_EQ(rejection({"12abc"}),
              "argument 1 must be a count, got '12abc'");
    EXPECT_EQ(rejection({"1", "2"}), "unexpected argument '2'");

    const Spec files{.usage = "", .variadic = true};
    std::string error;
    const auto args = Args::tryParse(files, {"src", "tests"}, &error);
    ASSERT_TRUE(args) << error;
    EXPECT_EQ(args->positionals(),
              (std::vector<std::string>{"src", "tests"}));
}

TEST(CliParseDeathTest, RejectionPrintsUsageAndExitsTwo)
{
    const char *argv[] = {"prog", "campaign", "--trails", "50"};
    EXPECT_EXIT(parse(kSpec, 4, const_cast<char **>(argv), 2),
                ::testing::ExitedWithCode(2),
                "prog: error: unknown option '--trails'\nusage: prog");
}

TEST(CliParseDeathTest, FailAfterParsingExitsTwo)
{
    const char *argv[] = {"prog"};
    const Args args = parse(kSpec, 1, const_cast<char **>(argv));
    EXPECT_EXIT(args.fail("unknown precision 'quad'"),
                ::testing::ExitedWithCode(2),
                "prog: error: unknown precision 'quad'\nusage: prog");
}

TEST(CliArgs, JobsUpToTheLimitAreAccepted)
{
    const Spec spec{.usage = "usage: prog [--jobs N]\n",
                    .counts = {"jobs"}};
    std::string error;
    const auto absent = Args::tryParse(spec, {}, &error);
    ASSERT_TRUE(absent) << error;
    EXPECT_EQ(absent->jobs(), 0u);
    for (unsigned n : {0u, 1u, 64u, kMaxJobs}) {
        const auto args =
            Args::tryParse(spec, {"--jobs", std::to_string(n)}, &error);
        ASSERT_TRUE(args) << error;
        EXPECT_EQ(args->jobs(), n);
    }
}

TEST(CliArgs, TrialsUpToTheLimitAreAccepted)
{
    const Spec spec{.usage = "usage: prog [--trials N]\n",
                    .counts = {"trials"}};
    std::string error;
    const auto absent = Args::tryParse(spec, {}, &error);
    ASSERT_TRUE(absent) << error;
    EXPECT_EQ(absent->trials(300), 300u);
    // With a fallback of 0, an explicit 0 spells "the default" too.
    const auto zero = Args::tryParse(spec, {"--trials", "0"}, &error);
    ASSERT_TRUE(zero) << error;
    EXPECT_EQ(zero->trials(0), 0u);
    const auto most = Args::tryParse(
        spec, {"--trials", std::to_string(kMaxTrials)}, &error);
    ASSERT_TRUE(most) << error;
    EXPECT_EQ(most->trials(300), kMaxTrials);
}

TEST(CliParseDeathTest, JobsAboveTheLimitExitTwo)
{
    // 2^32 and 2^32 + 1 once wrapped to 0 (all threads) and 1.
    const Spec spec{.usage = "usage: prog [--jobs N]\n",
                    .counts = {"jobs"}};
    for (const char *n : {"1025", "4294967296", "4294967297"}) {
        const char *argv[] = {"prog", "--jobs", n};
        const Args args = parse(spec, 3, const_cast<char **>(argv));
        EXPECT_EXIT((void)args.jobs(), ::testing::ExitedWithCode(2),
                    std::string("prog: error: --jobs ") + n +
                        " is above the limit of 1024\nusage: prog");
    }
}

TEST(CliParseDeathTest, DeclaredHelpPrintsUsageAndExitsZero)
{
    const Spec spec{.usage = "usage: helpful\n", .switches = {"help"}};
    const char *argv[] = {"prog", "-h"};
    EXPECT_EXIT(parse(spec, 2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace mparch::cli

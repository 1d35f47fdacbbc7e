/**
 * @file
 * Tests for the common substrate: RNG, bits, stats, tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "common/bits.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace mparch {
namespace {

/** Sample mean and unbiased sample variance of @p xs. */
std::pair<double, double>
moments(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    const double mean = sum / static_cast<double>(xs.size());
    double m2 = 0.0;
    for (const double x : xs)
        m2 += (x - mean) * (x - mean);
    return {mean, m2 / static_cast<double>(xs.size() - 1)};
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform)
{
    Rng rng(7);
    constexpr std::uint64_t bound = 10;
    std::array<int, bound> histo{};
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i) {
        const auto v = rng.below(bound);
        ASSERT_LT(v, bound);
        ++histo[v];
    }
    for (int count : histo) {
        EXPECT_GT(count, n / 10 - 1000);
        EXPECT_LT(count, n / 10 + 1000);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(8);
    std::vector<double> us;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        us.push_back(u);
    }
    const auto [mean, variance] = moments(us);
    EXPECT_NEAR(mean, 0.5, 0.01);
    EXPECT_NEAR(variance, 1.0 / 12.0, 0.005);
}

TEST(Rng, NormalMoments)
{
    Rng rng(9);
    std::vector<double> xs;
    for (int i = 0; i < 200000; ++i)
        xs.push_back(rng.normal(3.0, 2.0));
    const auto [mean, variance] = moments(xs);
    EXPECT_NEAR(mean, 3.0, 0.05);
    EXPECT_NEAR(std::sqrt(variance), 2.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLarge)
{
    Rng rng(10);
    for (double mean : {0.5, 4.0, 200.0}) {
        std::vector<double> xs;
        for (int i = 0; i < 50000; ++i)
            xs.push_back(static_cast<double>(rng.poisson(mean)));
        EXPECT_NEAR(moments(xs).first, mean, mean * 0.05 + 0.05) << mean;
    }
}

TEST(Rng, ForkIsIndependent)
{
    Rng parent(11);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 2);
}

TEST(Bits, MaskExtractFlip)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(3), 7u);
    EXPECT_EQ(maskBits(64), ~0ULL);
    EXPECT_EQ(extractBits(0xabcdULL, 4, 8), 0xbcULL);
    EXPECT_EQ(flipBit<std::uint64_t>(0, 5), 32u);
    EXPECT_EQ(flipBit<std::uint64_t>(32, 5), 0u);
    EXPECT_TRUE(testBit<std::uint64_t>(32, 5));
    EXPECT_EQ(setBit<std::uint64_t>(0, 3, true), 8u);
    EXPECT_EQ(setBit<std::uint64_t>(8, 3, false), 0u);
}

TEST(Bits, HighestSetBit)
{
    EXPECT_EQ(highestSetBit(0), -1);
    EXPECT_EQ(highestSetBit(1), 0);
    EXPECT_EQ(highestSetBit(0x8000000000000000ULL), 63);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(highestSetBit(1ULL << i), i);
}

TEST(Stats, WilsonIntervalCoversTruth)
{
    // 30 hits out of 100: interval must cover 0.3 and stay in [0,1].
    const Interval iv = wilson95(30, 100);
    EXPECT_TRUE(iv.contains(0.3));
    EXPECT_GE(iv.lo, 0.0);
    EXPECT_LE(iv.hi, 1.0);
    EXPECT_LT(iv.lo, iv.hi);
    // Degenerate cases.
    EXPECT_TRUE(wilson95(0, 0).contains(0.5));
    const Interval zero_hits = wilson95(0, 50);
    EXPECT_LT(zero_hits.lo, 1e-12);
    EXPECT_GT(zero_hits.hi, 0.0);
}

TEST(Stats, WilsonShrinksWithSamples)
{
    const Interval small = wilson95(5, 10);
    const Interval big = wilson95(500, 1000);
    EXPECT_LT(big.hi - big.lo, small.hi - small.lo);
}

TEST(Stats, PoissonRateInterval)
{
    const Interval iv = poissonRate95(100, 10.0);
    EXPECT_TRUE(iv.contains(10.0));
    EXPECT_GT(iv.lo, 5.0);
    EXPECT_LT(iv.hi, 15.0);
    EXPECT_DOUBLE_EQ(poissonRate95(0, 0.0).lo, 0.0);
}

TEST(Table, AlignedOutput)
{
    Table t({"name", "value"});
    t.setTitle("demo");
    t.row().cell("alpha").cell(1.5, 1);
    t.row().cell("b").cell(std::int64_t{42});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CsvQuoting)
{
    Table t({"a", "b"});
    t.row().cell("x,y").cell("plain");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

} // namespace
} // namespace mparch

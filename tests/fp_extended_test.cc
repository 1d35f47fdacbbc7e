/**
 * @file
 * Extended softfloat tests: directed rounding modes (validated
 * against the host FPU via <cfenv>), integer conversions, exhaustive
 * binary16 sweeps, and format-generic property tests that also cover
 * the beyond-the-paper formats (bfloat16, TF32).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hh"
#include "fp/softfloat.hh"
#include "fp/value.hh"
#include "fault/campaign.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace mparch::fp {
namespace {

std::uint64_t
d2u(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

double
u2d(std::uint64_t u)
{
    return std::bit_cast<double>(u);
}

/** Random finite/special pattern (duplicated from fp_arith_test). */
std::uint64_t
randomBits(Rng &rng, Format f)
{
    const int kind = static_cast<int>(rng.below(10));
    switch (kind) {
      case 0: return zero(f, rng.chance(0.5));
      case 1: return infinity(f, rng.chance(0.5));
      case 2: return quietNaN(f);
      case 3:
        return packFields(f, rng.chance(0.5), 0,
                          rng.below(f.manMask()) + 1);
      case 4:
        return packFields(f, rng.chance(0.5),
                          f.maxBiasedExp() - 1 -
                              static_cast<int>(rng.below(3)),
                          rng.below(f.manMask() + 1));
      default:
        return packFields(
            f, rng.chance(0.5),
            1 + static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(f.maxBiasedExp() - 1))),
            rng.below(f.manMask() + 1));
    }
}

// ---------------------------------------------------------------
// Directed rounding vs the host FPU
// ---------------------------------------------------------------

struct HostRoundGuard
{
    explicit HostRoundGuard(int mode) { std::fesetround(mode); }
    ~HostRoundGuard() { std::fesetround(FE_TONEAREST); }
};

class RoundingModes
    : public ::testing::TestWithParam<std::pair<Rounding, int>>
{};

TEST_P(RoundingModes, DoubleAddMulDivMatchHostFpu)
{
    const auto [soft_mode, host_mode] = GetParam();
    FpContext ctx;
    ctx.rounding = soft_mode;
    FpEnvGuard guard(ctx);
    HostRoundGuard host(host_mode);

    Rng rng(21);
    for (int i = 0; i < 40000; ++i) {
        const std::uint64_t a = randomBits(rng, kDouble);
        const std::uint64_t b = randomBits(rng, kDouble);
        const volatile double da = u2d(a);
        const volatile double db = u2d(b);
        const std::uint64_t add_want = d2u(da + db);
        const std::uint64_t mul_want = d2u(da * db);
        const std::uint64_t div_want = d2u(da / db);
        const std::uint64_t add_got = fpAdd(kDouble, a, b);
        const std::uint64_t mul_got = fpMul(kDouble, a, b);
        const std::uint64_t div_got = fpDiv(kDouble, a, b);
        if (!(isNaN(kDouble, add_want) && isNaN(kDouble, add_got))) {
            EXPECT_EQ(add_want, add_got) << "add " << a << " " << b;
        }
        if (!(isNaN(kDouble, mul_want) && isNaN(kDouble, mul_got))) {
            EXPECT_EQ(mul_want, mul_got) << "mul " << a << " " << b;
        }
        if (!(isNaN(kDouble, div_want) && isNaN(kDouble, div_got))) {
            EXPECT_EQ(div_want, div_got) << "div " << a << " " << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, RoundingModes,
    ::testing::Values(
        std::pair{Rounding::NearestEven, FE_TONEAREST},
        std::pair{Rounding::TowardZero, FE_TOWARDZERO},
        std::pair{Rounding::Upward, FE_UPWARD},
        std::pair{Rounding::Downward, FE_DOWNWARD}),
    [](const auto &info) -> std::string {
        switch (info.param.first) {
          case Rounding::NearestEven: return "nearest_even";
          case Rounding::TowardZero:  return "toward_zero";
          case Rounding::Upward:      return "upward";
          case Rounding::Downward:    return "downward";
        }
        return "unknown";
    });

TEST(RoundingModesEdge, OverflowSaturationPerMode)
{
    const std::uint64_t big = maxFinite(kDouble, false);
    auto with_mode = [&](Rounding mode, bool negate) {
        FpContext ctx;
        ctx.rounding = mode;
        FpEnvGuard guard(ctx);
        const std::uint64_t a = negate ? fpNeg(kDouble, big) : big;
        return fpAdd(kDouble, a, a);
    };
    EXPECT_EQ(with_mode(Rounding::NearestEven, false),
              infinity(kDouble, false));
    EXPECT_EQ(with_mode(Rounding::TowardZero, false),
              maxFinite(kDouble, false));
    EXPECT_EQ(with_mode(Rounding::Upward, false),
              infinity(kDouble, false));
    EXPECT_EQ(with_mode(Rounding::Upward, true),
              maxFinite(kDouble, true));
    EXPECT_EQ(with_mode(Rounding::Downward, false),
              maxFinite(kDouble, false));
    EXPECT_EQ(with_mode(Rounding::Downward, true),
              infinity(kDouble, true));
}

TEST(RoundingModesEdge, ExactCancellationSign)
{
    FpContext ctx;
    ctx.rounding = Rounding::Downward;
    FpEnvGuard guard(ctx);
    const std::uint64_t x = fpFromDouble(kDouble, 1.5);
    const std::uint64_t r = fpSub(kDouble, x, x);
    EXPECT_EQ(r, zero(kDouble, true));  // x - x = -0 toward-negative
    ctx.rounding = Rounding::NearestEven;
    EXPECT_EQ(fpSub(kDouble, x, x), zero(kDouble, false));
}

// ---------------------------------------------------------------
// Format-generic properties (covers bfloat16 and TF32 too)
// ---------------------------------------------------------------

class FormatProperties : public ::testing::TestWithParam<Format>
{};

TEST_P(FormatProperties, AdditionIsCommutative)
{
    const Format f = GetParam();
    Rng rng(41);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t a = randomBits(rng, f);
        const std::uint64_t b = randomBits(rng, f);
        EXPECT_EQ(fpAdd(f, a, b), fpAdd(f, b, a));
        EXPECT_EQ(fpMul(f, a, b), fpMul(f, b, a));
    }
}

TEST_P(FormatProperties, IdentityElements)
{
    const Format f = GetParam();
    Rng rng(42);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t a = randomBits(rng, f);
        if (isNaN(f, a))
            continue;
        // a * 1 == a, a + 0 == a (except -0 + +0).
        EXPECT_EQ(fpMul(f, a, one(f)), a);
        if (!isZero(f, a)) {
            EXPECT_EQ(fpAdd(f, a, zero(f, false)), a);
        }
        // a / 1 == a.
        EXPECT_EQ(fpDiv(f, a, one(f)), a);
        // a - a == +0 for finite a.
        if (isFinite(f, a)) {
            EXPECT_EQ(fpSub(f, a, a), zero(f, false));
        }
    }
}

TEST_P(FormatProperties, SignSymmetry)
{
    const Format f = GetParam();
    Rng rng(43);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t a = randomBits(rng, f);
        const std::uint64_t b = randomBits(rng, f);
        if (isNaN(f, a) || isNaN(f, b))
            continue;
        // (-a) * b == -(a * b)
        const std::uint64_t lhs = fpMul(f, fpNeg(f, a), b);
        const std::uint64_t rhs = fpNeg(f, fpMul(f, a, b));
        if (!(isNaN(f, lhs) && isNaN(f, rhs))) {
            EXPECT_EQ(lhs, rhs);
        }
    }
}

TEST_P(FormatProperties, FmaDegeneratesToMulAndAdd)
{
    const Format f = GetParam();
    Rng rng(44);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t a = randomBits(rng, f);
        const std::uint64_t b = randomBits(rng, f);
        // fma(a, b, 0) == a*b whenever a*b isn't an exact -0 case.
        const std::uint64_t via_fma =
            fpFma(f, a, b, zero(f, false));
        const std::uint64_t via_mul = fpMul(f, a, b);
        if (isNaN(f, via_fma) && isNaN(f, via_mul))
            continue;
        if (isZero(f, via_mul))
            continue;  // signed-zero sum rules differ legitimately
        EXPECT_EQ(via_fma, via_mul);
        // fma(a, 1, c) == a + c.
        const std::uint64_t c = randomBits(rng, f);
        const std::uint64_t fma1 = fpFma(f, a, one(f), c);
        const std::uint64_t add1 = fpAdd(f, a, c);
        if (!(isNaN(f, fma1) && isNaN(f, add1))) {
            EXPECT_EQ(fma1, add1);
        }
    }
}

TEST_P(FormatProperties, MonotoneAdditionOnPositives)
{
    const Format f = GetParam();
    Rng rng(45);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t a = randomBits(rng, f) & (f.valueMask() >> 1);
        std::uint64_t b = randomBits(rng, f) & (f.valueMask() >> 1);
        std::uint64_t c = randomBits(rng, f) & (f.valueMask() >> 1);
        if (isNaN(f, a) || isNaN(f, b) || isNaN(f, c))
            continue;
        if (!fpLessEqual(f, a, b))
            std::swap(a, b);
        // a <= b  =>  a + c <= b + c  (positives, any rounding once
        // fixed to RNE).
        EXPECT_TRUE(fpLessEqual(f, fpAdd(f, a, c), fpAdd(f, b, c)));
    }
}

TEST_P(FormatProperties, SqrtInverseOfSquareWithinUlp)
{
    const Format f = GetParam();
    Rng rng(46);
    for (int i = 0; i < 10000; ++i) {
        // Positive normal, kept small enough that a^2 stays finite.
        const std::uint64_t a = packFields(
            f, false,
            f.bias() / 2 +
                static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(f.bias()))),
            rng.below(f.manMask() + 1));
        const std::uint64_t sq = fpMul(f, a, a);
        if (isInf(f, sq) || isZero(f, sq))
            continue;
        const std::uint64_t back = fpSqrt(f, sq);
        // sqrt(a^2) within 1 ulp of a.
        const std::int64_t delta =
            static_cast<std::int64_t>(back) -
            static_cast<std::int64_t>(a);
        EXPECT_LE(std::abs(delta), 1)
            << "a=" << a << " sq=" << sq << " back=" << back;
    }
}

TEST_P(FormatProperties, ConversionLatticeThroughDouble)
{
    const Format f = GetParam();
    Rng rng(47);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t a = randomBits(rng, f);
        if (isNaN(f, a))
            continue;
        // Widening to binary64 and back is the identity for every
        // narrower format.
        const std::uint64_t wide = fpConvertSilent(kDouble, f, a);
        EXPECT_EQ(fpConvertSilent(f, kDouble, wide), a);
    }
}

TEST_P(FormatProperties, NaNPropagation)
{
    const Format f = GetParam();
    const std::uint64_t nan = quietNaN(f);
    const std::uint64_t x = one(f);
    EXPECT_TRUE(isNaN(f, fpAdd(f, nan, x)));
    EXPECT_TRUE(isNaN(f, fpSub(f, x, nan)));
    EXPECT_TRUE(isNaN(f, fpMul(f, nan, x)));
    EXPECT_TRUE(isNaN(f, fpDiv(f, nan, x)));
    EXPECT_TRUE(isNaN(f, fpFma(f, nan, x, x)));
    EXPECT_TRUE(isNaN(f, fpFma(f, x, x, nan)));
    EXPECT_TRUE(isNaN(f, fpSqrt(f, nan)));
    EXPECT_FALSE(fpEqual(f, nan, nan));
    EXPECT_FALSE(fpLess(f, nan, x));
}

TEST_P(FormatProperties, SubnormalsAreGradual)
{
    const Format f = GetParam();
    // min normal / 2 is the top half of the subnormal range, not 0.
    const std::uint64_t min_normal = packFields(f, false, 1, 0);
    const std::uint64_t half_val = fpFromDouble(f, 0.5);
    const std::uint64_t r = fpMul(f, min_normal, half_val);
    EXPECT_EQ(classify(f, r), FpClass::Subnormal);
    // Summing two smallest subnormals is exact.
    const std::uint64_t tiny = packFields(f, false, 0, 1);
    EXPECT_EQ(fpAdd(f, tiny, tiny), packFields(f, false, 0, 2));
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, FormatProperties,
    ::testing::Values(kHalf, kBfloat16, kTf32, kSingle, kDouble),
    [](const auto &info) {
        const Format f = info.param;
        if (f == kHalf) return std::string("half");
        if (f == kBfloat16) return std::string("bfloat16");
        if (f == kTf32) return std::string("tf32");
        if (f == kSingle) return std::string("single");
        return std::string("double");
    });

// ---------------------------------------------------------------
// Exhaustive binary16 sweeps
// ---------------------------------------------------------------

TEST(ExhaustiveHalf, SqrtAgainstHostForEveryPattern)
{
    for (std::uint64_t bits = 0; bits < 0x10000; ++bits) {
        const double v = fpToDouble(kHalf, bits);
        const std::uint64_t want =
            fpConvertSilent(kHalf, kDouble,
                            std::bit_cast<std::uint64_t>(
                                std::sqrt(v)));
        const std::uint64_t got = fpSqrt(kHalf, bits);
        if (isNaN(kHalf, want) && isNaN(kHalf, got))
            continue;
        ASSERT_EQ(want, got) << "bits=" << bits;
    }
}

TEST(ExhaustiveHalf, ConversionRoundTripEveryPattern)
{
    for (std::uint64_t bits = 0; bits < 0x10000; ++bits) {
        if (isNaN(kHalf, bits))
            continue;
        EXPECT_EQ(fpConvertSilent(
                      kHalf, kSingle,
                      fpConvertSilent(kSingle, kHalf, bits)),
                  bits);
    }
}

TEST(ExhaustiveHalf, NegationIsInvolutiveEveryPattern)
{
    for (std::uint64_t bits = 0; bits < 0x10000; ++bits)
        ASSERT_EQ(fpNeg(kHalf, fpNeg(kHalf, bits)), bits);
}

TEST(ExhaustiveHalf, AddOneAgainstHostForEveryPattern)
{
    const std::uint64_t one_h = one(kHalf);
    for (std::uint64_t bits = 0; bits < 0x10000; ++bits) {
        const double v = fpToDouble(kHalf, bits);
        const std::uint64_t want =
            fpConvertSilent(kHalf, kDouble,
                            std::bit_cast<std::uint64_t>(v + 1.0));
        const std::uint64_t got = fpAdd(kHalf, bits, one_h);
        if (isNaN(kHalf, want) && isNaN(kHalf, got))
            continue;
        ASSERT_EQ(want, got) << "bits=" << bits;
    }
}

// ---------------------------------------------------------------
// bfloat16-specific behaviour
// ---------------------------------------------------------------

TEST(Bfloat16, RangeMatchesSingleButPrecisionIsCoarse)
{
    // 1e38 is representable (unlike binary16)...
    const std::uint64_t big = fpFromDouble(kBfloat16, 1e38);
    EXPECT_TRUE(isFinite(kBfloat16, big));
    EXPECT_NEAR(fpToDouble(kBfloat16, big) / 1e38, 1.0, 0.01);
    // ...but 1 + 2^-10 is not distinguishable from 1.
    EXPECT_EQ(fpFromDouble(kBfloat16, 1.0009765625), one(kBfloat16));
    // Truncating single -> bfloat16 keeps the top 7 mantissa bits.
    EXPECT_EQ(fpConvertSilent(kBfloat16, kSingle,
                              fpFromDouble(kSingle, 3.140625)),
              fpFromDouble(kBfloat16, 3.140625));
}

TEST(Bfloat16, WorkloadsRunAtBfloat16)
{
    auto w = workloads::makeWorkload("mxm", Precision::Bfloat16, 0.1);
    w->reset(5);
    workloads::ExecutionEnv env;
    w->execute(env);
    const auto out = w->output();
    for (std::size_t i = 0; i < out.count; ++i)
        EXPECT_TRUE(isFinite(kBfloat16, out.get(i)));
}

} // namespace
} // namespace mparch::fp

namespace mparch::fp {
namespace {

TEST(FpDescribe, RendersEveryClass)
{
    EXPECT_EQ(fpDescribe(kHalf, quietNaN(kHalf)), "nan");
    EXPECT_EQ(fpDescribe(kHalf, infinity(kHalf, true)), "-inf");
    EXPECT_EQ(fpDescribe(kHalf, zero(kHalf, false)), "+0 (zero)");
    EXPECT_EQ(fpDescribe(kHalf, one(kHalf)), "+1.0p+0 (normal)");
    EXPECT_EQ(fpDescribe(kHalf, fpFromDouble(kHalf, -1.5)),
              "-1.1p+0 (normal)");
    EXPECT_EQ(fpDescribe(kHalf, fpFromDouble(kHalf, 0x1.8p-3)),
              "+1.1p-3 (normal)");
    // Smallest half subnormal: 0.0000000001 x 2^-14.
    EXPECT_EQ(fpDescribe(kHalf, packFields(kHalf, false, 0, 1)),
              "+0.0000000001p-14 (subnormal)");
    // Round-trippable across formats.
    EXPECT_EQ(fpDescribe(kDouble, fpFromDouble(kDouble, 2.0)),
              "+1.0p+1 (normal)");
}

TEST(FaultModelWordBurst, FlipsSameBitInAdjacentWords)
{
    auto w = workloads::makeWorkload("mxm", Precision::Half, 0.1);
    fault::CampaignConfig config;
    config.trials = 200;
    config.model = fault::FaultModel::WordBurst;
    const auto r = test::acceptedCampaign(
        *w, fault::CampaignKind::Memory, config);
    EXPECT_EQ(r.trials, 200u);
    EXPECT_EQ(r.masked + r.sdc + r.due + r.detected, r.trials);
    // A 4-word burst propagates at least as often as a single flip.
    fault::CampaignConfig single = config;
    single.model = fault::FaultModel::SingleBitFlip;
    const auto rs = test::acceptedCampaign(
        *w, fault::CampaignKind::Memory, single);
    EXPECT_GE(r.avfSdc(), rs.avfSdc() - 0.05);
}

} // namespace
} // namespace mparch::fp

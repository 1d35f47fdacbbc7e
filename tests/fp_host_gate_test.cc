/**
 * @file
 * Tests for the host-FPU gate in front of the softfloat core: the
 * gated conversions and the gated half/bfloat16 fma edge cases equal
 * the forced softfloat route bit for bit, the gate steps aside
 * whenever the host FPU leaves its IEEE default mode (directed
 * rounding, flush-to-zero, denormals-are-zero), and a strike trigger
 * routes exactly its struck ops to the hook.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <pmmintrin.h>
#include <xmmintrin.h>
#endif

#include "common/rng.hh"
#include "fp/softfloat.hh"

namespace mparch::fp {
namespace {

/** Random operand: zeros, subnormals, extremes, specials, normals. */
std::uint64_t
operand(Rng &rng, Format f)
{
    const bool sign = rng.chance(0.5);
    switch (rng.below(10)) {
      case 0: return zero(f, sign);
      case 1: return infinity(f, sign);
      case 2:  // NaN with an arbitrary payload, quiet or signalling
        return packFields(f, sign, f.maxBiasedExp(),
                          rng.below(f.manMask()) + 1);
      case 3:
      case 4:  // subnormal
        return packFields(f, sign, 0, rng.below(f.manMask()) + 1);
      case 5:  // near the bottom of the normal range
        return packFields(f, sign, 1 + static_cast<int>(rng.below(3)),
                          rng.below(f.manMask() + 1));
      case 6:  // near overflow
        return packFields(f, sign,
                          f.maxBiasedExp() - 1 -
                              static_cast<int>(rng.below(3)),
                          rng.below(f.manMask() + 1));
      default:
        return packFields(
            f, sign,
            static_cast<int>(rng.below(
                static_cast<std::uint64_t>(f.maxBiasedExp() - 1))) + 1,
            rng.below(f.manMask() + 1));
    }
}

enum class GOp { Add, Sub, Mul, Div, Sqrt, Fma };

constexpr GOp kArith[] = {GOp::Add, GOp::Sub, GOp::Mul, GOp::Div,
                          GOp::Sqrt, GOp::Fma};

std::uint64_t
apply(GOp op, Format f, std::uint64_t a, std::uint64_t b,
      std::uint64_t c)
{
    switch (op) {
      case GOp::Add:  return fpAdd(f, a, b);
      case GOp::Sub:  return fpSub(f, a, b);
      case GOp::Mul:  return fpMul(f, a, b);
      case GOp::Div:  return fpDiv(f, a, b);
      case GOp::Sqrt: return fpSqrt(f, a);
      case GOp::Fma:  return fpFma(f, a, b, c);
    }
    return 0;
}

/** Forced softfloat: an identity hook instruments every op. */
template <class Fn>
std::uint64_t
forced(Fn &&fn)
{
    FpHook identity;
    FpContext ctx;
    ctx.hook = &identity;
    FpEnvGuard guard(ctx);
    return fn();
}

// Arithmetic ops are compared with the softfloat reference by the
// host-gate check of verify_quick (10^6 fuzz cases per format) and by
// HookInvariance in fp_hooks_test; the silent conversions only here.
TEST(HostGate, ConversionsMatchForcedSoftfloat)
{
    const Format formats[] = {kHalf, kSingle, kDouble, kBfloat16};
    Rng rng(77);
    for (Format src : formats) {
        for (Format dst : formats) {
            for (int i = 0; i < 20000; ++i) {
                const std::uint64_t a = operand(rng, src);
                const std::uint64_t want =
                    forced([&] { return fpConvert(dst, src, a); });
                ASSERT_EQ(fpConvert(dst, src, a), want)
                    << std::hex << "a=" << a;
                ASSERT_EQ(fpConvertSilent(dst, src, a), want)
                    << std::hex << "a=" << a;
            }
        }
    }
}

// ---------------------------------------------------------------
// Half/bfloat16 fma: host result only under the exact-sum proof

struct FmaCase
{
    const char *what;
    std::uint64_t a, b, c;
};

/** Gated fma equals forced softfloat on every case, for format @p f. */
void
expectFmaMatchesForced(Format f, const std::vector<FmaCase> &cases)
{
    for (const FmaCase &k : cases) {
        const std::uint64_t want =
            forced([&] { return fpFma(f, k.a, k.b, k.c); });
        EXPECT_EQ(fpFma(f, k.a, k.b, k.c), want) << k.what;
    }
}

TEST(HostGateFma, HalfEdgeCasesMatchForcedSoftfloat)
{
    expectFmaMatchesForced(kHalf, {
        {"1*2-2 cancels to +0", 0x3c00, 0x4000, 0xc000},
        {"-2*1+2 cancels to +0", 0xc000, 0x3c00, 0x4000},
        {"(-0)+(-0)", 0x8000, 0x3c00, 0x8000},
        {"(+0)+(-0)", 0x0000, 0x3c00, 0x8000},
        {"(-0*-1)+(-0)", 0x8000, 0xbc00, 0x8000},
        {"inf*0+1", 0x7c00, 0x0000, 0x3c00},
        {"0*-inf+nan", 0x0000, 0xfc00, 0x7e00},
        {"inf*1-inf", 0x7c00, 0x3c00, 0xfc00},
        {"inf*1+inf", 0x7c00, 0x3c00, 0x7c00},
        {"1*1-inf", 0x3c00, 0x3c00, 0xfc00},
        {"signalling payload in a", 0x7d23, 0x3c00, 0x3c00},
        {"negative payload in b", 0x3c00, 0xfe01, 0x3c00},
        {"payload in c", 0x3c00, 0x3c00, 0x7c01},
        {"2^-24*0.5 ties to 0", 0x0001, 0x3800, 0x0000},
        {"3*2^-24*0.5 ties to even 2", 0x0003, 0x3800, 0x0000},
        {"subnormal sum", 0x0005, 0x3800, 0x0007},
        {"subnormal minus product", 0x0201, 0x3800, 0x8300},
        {"2047*2^-25 ties up to min normal", 0x07ff, 0x3800, 0x0000},
        {"1023*2^-24+2^-25 ties up to min normal", 0x0001, 0x3800,
         0x03ff},
        {"1022*2^-24+2^-25 ties down to even", 0x0001, 0x3800, 0x03fe},
        {"min normal minus 2^-25", 0x8001, 0x3800, 0x0400},
        {"65504+16 = 65520 ties to inf", 0x7bff, 0x3c00, 0x4c00},
        {"65504+15.99 rounds to max", 0x7bff, 0x3c00, 0x4bff},
        {"-65504-16 ties to -inf", 0xfbff, 0x3c00, 0xcc00},
        {"product past max, cancelled back", 0x7bff, 0x4000, 0xfbff},
        {"product overflow", 0x7bff, 0x7bff, 0x3c00},
        {"tiny product under a large addend", 0x0001, 0x0001, 0x7800},
    });
}

TEST(HostGateFma, Bfloat16EdgeCasesMatchForcedSoftfloat)
{
    expectFmaMatchesForced(kBfloat16, {
        {"1*2-2 cancels to +0", 0x3f80, 0x4000, 0xc000},
        {"(-0)+(-0)", 0x8000, 0x3f80, 0x8000},
        {"inf*0+1", 0x7f80, 0x0000, 0x3f80},
        {"inf*1-inf", 0x7f80, 0x3f80, 0xff80},
        {"payloads", 0x7f81, 0xffc3, 0x7fa0},
        {"subnormal*0.5 ties to even", 0x0003, 0x3f00, 0x0000},
        {"max subnormal+half unit ties to min normal", 0x0001, 0x3f00,
         0x007f},
        {"max finite+half ulp ties to inf", 0x7f7f, 0x3f80, 0x7b00},
        {"max finite squared", 0x7f7f, 0x7f7f, 0x0000},
        {"tiny product under a large addend", 0x0001, 0x0001, 0x7f00},
    });
}

TEST(HostGateFma, TinyAddendBreaksAProductTie)
{
    // 0x3f88^2 = 1 + 2^-3 + 2^-8 is the exact midpoint of 0x3f90 and
    // 0x3f91; the addend 2^-133 must break the tie upward. A double
    // fma narrowed afterwards rounds twice and lands on 0x3f90, so
    // the gate has to hand this case to softfloat.
    EXPECT_EQ(forced([] { return fpFma(kBfloat16, 0x3f88, 0x3f88, 0x1); }),
              0x3f91u);
    EXPECT_EQ(fpFma(kBfloat16, 0x3f88, 0x3f88, 0x0001), 0x3f91u);
    EXPECT_EQ(fpFma(kBfloat16, 0xbf88, 0x3f88, 0x8001), 0xbf91u);
    // Without the addend the tie goes to even.
    EXPECT_EQ(fpFma(kBfloat16, 0x3f88, 0x3f88, 0x0000), 0x3f90u);
}

TEST(HostGate, GatedOpsStillCount)
{
    FpContext ctx;
    {
        FpEnvGuard guard(ctx);
        const std::uint64_t x = fpFromDouble(kSingle, 1.5);
        (void)fpAdd(kSingle, x, x);
        (void)fpFma(kSingle, x, x, x);
        (void)fpConvert(kDouble, kSingle, x);
        (void)fpConvertSilent(kDouble, kSingle, x);  // uncounted
    }
    EXPECT_EQ(ctx.count(OpKind::Add), 1u);
    EXPECT_EQ(ctx.count(OpKind::Fma), 1u);
    EXPECT_EQ(ctx.count(OpKind::Convert), 1u);
    EXPECT_EQ(ctx.totalOps(), 3u);
}

// ---------------------------------------------------------------
// Host-mode independence

/** The host FP environment a case runs under. */
enum class HostMode { Upward, TowardZero, FlushDenormals };

/** Switch the host FPU into @p mode; restore the default on exit. */
class HostModeGuard
{
  public:
    explicit HostModeGuard(HostMode mode)
    {
        switch (mode) {
          case HostMode::Upward:
            std::fesetround(FE_UPWARD);
            break;
          case HostMode::TowardZero:
            std::fesetround(FE_TOWARDZERO);
            break;
          case HostMode::FlushDenormals:
#if defined(__SSE2__)
            _MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);
            _MM_SET_DENORMALS_ZERO_MODE(_MM_DENORMALS_ZERO_ON);
#endif
            break;
        }
    }

    ~HostModeGuard()
    {
        std::fesetround(FE_TONEAREST);
#if defined(__SSE2__)
        _MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_OFF);
        _MM_SET_DENORMALS_ZERO_MODE(_MM_DENORMALS_ZERO_OFF);
#endif
    }

    HostModeGuard(const HostModeGuard &) = delete;
    HostModeGuard &operator=(const HostModeGuard &) = delete;
};

/**
 * Soft round-to-nearest-even results of single/double add, mul, div,
 * sqrt, fma and the host-double conversions over random operands
 * (subnormals included), in one flat vector.
 */
std::vector<std::uint64_t>
softResults()
{
    std::vector<std::uint64_t> out;
    Rng rng(4242);
    for (Format f : {kSingle, kDouble}) {
        for (int i = 0; i < 4000; ++i) {
            const std::uint64_t a = operand(rng, f);
            const std::uint64_t b = operand(rng, f);
            const std::uint64_t c = operand(rng, f);
            for (GOp op : kArith)
                out.push_back(apply(op, f, a, b, c));
        }
    }
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t bits = operand(rng, kDouble);
        const double v = std::bit_cast<double>(bits);
        for (Format f : {kSingle, kHalf, kBfloat16})
            out.push_back(fpFromDouble(f, v));
        out.push_back(std::bit_cast<std::uint64_t>(
            fpToDouble(kSingle, operand(rng, kSingle))));
    }
    return out;
}

class HostModeIndependence : public ::testing::TestWithParam<HostMode>
{};

TEST_P(HostModeIndependence, SoftNearestEvenIgnoresTheHostMode)
{
    const std::vector<std::uint64_t> want = softResults();
    HostModeGuard mode(GetParam());
    // With no context, and with a context installed after the host
    // mode changed: neither may take the host route.
    const std::vector<std::uint64_t> bare = softResults();
    FpContext ctx;
    std::vector<std::uint64_t> guarded;
    {
        FpEnvGuard guard(ctx);
        guarded = softResults();
    }
    ASSERT_EQ(want.size(), bare.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i], bare[i]) << "case " << i;
        ASSERT_EQ(want[i], guarded[i]) << "case " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    HostModes, HostModeIndependence,
    ::testing::Values(HostMode::Upward, HostMode::TowardZero,
                      HostMode::FlushDenormals),
    [](const auto &info) {
        switch (info.param) {
          case HostMode::Upward:     return std::string("upward");
          case HostMode::TowardZero: return std::string("toward_zero");
          case HostMode::FlushDenormals:
            return std::string("ftz_daz");
        }
        return std::string("unknown");
    });

// ---------------------------------------------------------------
// Strike triggers route exactly the struck ops to the hook

/** Counts the ops whose OperandA stage reaches the hook. */
class OperandCounter : public FpHook
{
  public:
    std::uint64_t
    perturb(OpKind op, Stage stage, unsigned, std::uint64_t value)
        override
    {
        if (stage == Stage::OperandA)
            seen.push_back(op);
        return value;
    }

    std::vector<OpKind> seen;
};

TEST(StrikeTriggerTest, OneShotRoutesOnlyTheStruckOp)
{
    OperandCounter hook;
    StrikeTrigger strike = StrikeTrigger::oneShot(OpKind::Mul, 1);
    FpContext ctx;
    ctx.hook = &hook;
    ctx.strike = &strike;
    FpEnvGuard guard(ctx);
    const std::uint64_t x = fpFromDouble(kSingle, 1.5);
    for (int i = 0; i < 3; ++i) {
        (void)fpMul(kSingle, x, x);
        (void)fpAdd(kSingle, x, x);
    }
    EXPECT_EQ(hook.seen, std::vector<OpKind>{OpKind::Mul});
    EXPECT_EQ(ctx.count(OpKind::Mul), 3u);
    EXPECT_EQ(ctx.count(OpKind::Add), 3u);
}

TEST(StrikeTriggerTest, PersistentRoutesTheBrokenUnitsOps)
{
    OperandCounter hook;
    StrikeTrigger strike =
        StrikeTrigger::persistent(OpKind::Add, 4, 2, 0, 0, 0);
    FpContext ctx;
    ctx.hook = &hook;
    ctx.strike = &strike;
    FpEnvGuard guard(ctx);
    const std::uint64_t x = fpFromDouble(kDouble, 1.0);
    for (int i = 0; i < 12; ++i)
        (void)fpAdd(kDouble, x, x);
    EXPECT_EQ(hook.seen.size(), 3u);  // ops 2, 6 and 10
}

TEST(StrikeTriggerTest, ContextEntriesMatchATriggersCount)
{
    // FpContext::entered() stands in for a trigger's `seen` at a
    // golden checkpoint: it must leave out the ops without an FP
    // operand exactly as StrikeTrigger::enter does.
    OperandCounter hook;
    StrikeTrigger strike;  // kind NumKinds: strikes nothing
    FpContext ctx;
    ctx.hook = &hook;
    ctx.strike = &strike;
    FpEnvGuard guard(ctx);
    const std::uint64_t x = fpFromInt(kSingle, 3);
    (void)fpConvert(kDouble, kSingle, x);
    (void)fpToInt(kSingle, fpAdd(kSingle, x, x));
    (void)fpExp(kSingle, x);
    EXPECT_EQ(ctx.count(OpKind::Convert), 3u);
    EXPECT_EQ(ctx.entered()[static_cast<std::size_t>(OpKind::Convert)], 1u);
    EXPECT_EQ(ctx.entered(), strike.seen);
    EXPECT_TRUE(hook.seen.empty());
}

TEST(StrikeTriggerTest, OneShotIsExhaustedOncePlacedOrPassed)
{
    StrikeTrigger placed = StrikeTrigger::oneShot(OpKind::Mul, 2);
    EXPECT_FALSE(placed.exhausted());
    placed.spent = true;
    EXPECT_TRUE(placed.exhausted());

    // The struck op entered but its stage was not hit yet: only the
    // entry of a later op of the same kind exhausts the trigger.
    StrikeTrigger passed = StrikeTrigger::oneShot(OpKind::Mul, 2);
    for (int i = 0; i < 3; ++i)
        passed.enter(OpKind::Mul);
    EXPECT_TRUE(passed.strikes(OpKind::Mul));
    EXPECT_FALSE(passed.exhausted());
    passed.enter(OpKind::Add);
    EXPECT_FALSE(passed.exhausted());
    passed.enter(OpKind::Mul);
    EXPECT_FALSE(passed.strikes(OpKind::Mul));
    EXPECT_TRUE(passed.exhausted());

    EXPECT_FALSE(StrikeTrigger::persistent(OpKind::Add, 4, 1, 0, 0, 0)
                     .exhausted());
}

TEST(StrikeTriggerTest, HookWithoutTriggerSeesEveryOp)
{
    OperandCounter hook;
    FpContext ctx;
    ctx.hook = &hook;
    FpEnvGuard guard(ctx);
    const std::uint64_t x = fpFromDouble(kSingle, 2.0);
    (void)fpAdd(kSingle, x, x);
    (void)fpSqrt(kSingle, x);
    (void)fpExp(kSingle, x);
    EXPECT_GE(hook.seen.size(), 10u);  // exp's inner ops included
}

} // namespace
} // namespace mparch::fp

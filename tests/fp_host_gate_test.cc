/**
 * @file
 * Tests for the host-FPU gate in front of the softfloat core: the
 * gated conversions and the gated half/bfloat16 fma edge cases equal
 * the forced softfloat route bit for bit, the gate steps aside
 * whenever the host FPU leaves its IEEE default mode (directed
 * rounding, flush-to-zero, denormals-are-zero), a strike trigger
 * routes exactly its struck ops to the hook, the host route of a
 * struck op takes only the stages it can stand in for (and only the
 * products a stuck-at bit leaves unchanged), a persistent fault
 * inside an fma chain leaves what the every-op softfloat loop leaves,
 * both compilations of the single/double fma chain equal softfloat, and
 * the block gate's host blocks (fma chains, HostFp<P> ops, declines
 * inside a block) equal the per-op route.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cfenv>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#if defined(__SSE2__)
#include <pmmintrin.h>
#include <xmmintrin.h>
#endif

#include "common/rng.hh"
#include "fault/hooks.hh"
#include "fp/host.hh"
#include "fp/internal.hh"
#include "fp/softfloat.hh"
#include "workloads/workload.hh"

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

/** fmaChain over the patterns of @p a and @p b, in precision P. */
template <Precision P>
std::uint64_t
chainIn(const std::uint64_t *a, std::size_t sa, const std::uint64_t *b,
        std::size_t sb, std::size_t n, std::uint64_t acc)
{
    std::vector<Fp<P>> va, vb;
    for (std::size_t i = 0; n != 0 && i <= (n - 1) * sa; ++i)
        va.push_back(Fp<P>::fromBits(a[i]));
    for (std::size_t i = 0; n != 0 && i <= (n - 1) * sb; ++i)
        vb.push_back(Fp<P>::fromBits(b[i]));
    return fmaChain(va.data(), sa, vb.data(), sb, n, Fp<P>::fromBits(acc))
        .bits();
}

/** fmaChain in the memory format @p f, on bit patterns. */
std::uint64_t
chainBits(Format f, const std::uint64_t *a, std::size_t sa,
          const std::uint64_t *b, std::size_t sb, std::size_t n,
          std::uint64_t acc)
{
    if (f == kHalf)
        return chainIn<Precision::Half>(a, sa, b, sb, n, acc);
    if (f == kSingle)
        return chainIn<Precision::Single>(a, sa, b, sb, n, acc);
    if (f == kDouble)
        return chainIn<Precision::Double>(a, sa, b, sb, n, acc);
    EXPECT_EQ(f, kBfloat16);
    return chainIn<Precision::Bfloat16>(a, sa, b, sb, n, acc);
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

// Every binary16 pattern widens to the float the softfloat core's
// half-to-single conversion returns, bit for bit: subnormals, zeros,
// infinities and every NaN payload (the core returns its quiet NaN).
TEST(HostGate, WidenHalfMatchesSoftfloatOnEveryPattern)
{
    for (std::uint64_t h = 0; h <= 0xffff; ++h) {
        const std::uint64_t want =
            forced([&] { return fpConvert(kSingle, kHalf, h); });
        ASSERT_EQ(std::bit_cast<std::uint32_t>(detail::widenHalf(h)), want)
            << std::hex << "h=" << h;
    }
}

/**
 * round16, pack16 and narrow of the double @p d to F agree with the
 * softfloat core's double-to-F conversion: narrow gives its pattern,
 * round16 that pattern's value (NaN: the widened quiet NaN), and
 * pack16 packs round16's value back to the pattern.
 */
template <Format F>
void
expectRound16MatchesSoftfloat(double d)
{
    const auto u = std::bit_cast<std::uint64_t>(d);
    const std::uint64_t want =
        forced([&] { return fpConvert(F, kDouble, u); });
    ASSERT_EQ((detail::narrow<F, kDouble>(u)), want) << std::hex << u;
    const double r = detail::round16<F>(d);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(r),
              std::bit_cast<std::uint64_t>(
                  static_cast<double>(detail::widen16<F>(want))))
        << std::hex << u;
    ASSERT_EQ(detail::pack16<F>(r), want) << std::hex << u;
}

template <Format F>
void
expectRound16MatchesEverywhere()
{
    const auto value = [](std::uint64_t h) {
        return static_cast<double>(detail::widen16<F>(h));
    };
    // d and the doubles one ulp below and above it.
    const auto around = [](double d) {
        expectRound16MatchesSoftfloat<F>(d);
        expectRound16MatchesSoftfloat<F>(std::nextafter(d, -HUGE_VAL));
        expectRound16MatchesSoftfloat<F>(std::nextafter(d, HUGE_VAL));
    };
    const std::uint64_t inf = infinity(F, false);
    const std::uint64_t sign = 1ULL << F.signPos();
    for (std::uint64_t h = 0; h <= 0xffff; ++h) {
        const double v = value(h);
        around(v);
        const std::uint64_t mag = h & ~sign;
        if (mag >= inf)
            continue;
        // The F-midpoints to both neighbours; above the largest
        // finite value, where infinity begins, the grid goes on.
        const double up = mag + 1 < inf ? value(h + 1)
                                        : 2 * v - value(h - 1);
        around((v + up) / 2);
        if (mag > 0)
            around((v + value(h - 1)) / 2);
    }
    // Random doubles over F's range and a little beyond it.
    Rng rng(16);
    const int lo = kDouble.bias() + F.minExp() - F.manBits - 3;
    const int hi = kDouble.bias() + F.maxExp() + 2;
    for (int i = 0; i < 1000000; ++i) {
        const auto exp =
            static_cast<std::uint64_t>(rng.between(lo, hi));
        const std::uint64_t bits = (rng.next() & (1ULL << 63)) |
                                   (exp << kDouble.manBits) |
                                   (rng.next() & kDouble.manMask());
        expectRound16MatchesSoftfloat<F>(std::bit_cast<double>(bits));
    }
}

// Every half and bfloat16 value, both F-midpoints around it and one
// double ulp either side of each, plus 10^6 random doubles: the
// in-place rounding of the widened fma chain, the packing at its end
// and the narrowing of the per-op host ops equal the softfloat
// conversion, on the fast path and on every rare one.
TEST(HostGate, Round16MatchesNarrowAtEveryMidpoint)
{
    expectRound16MatchesEverywhere<kHalf>();
    expectRound16MatchesEverywhere<kBfloat16>();
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
 * Blocks of every HostFp op (add, sub, mul, div, fma, exp, negation)
 * on random operands through runBlock, appended to @p out: on the
 * host route in the IEEE default mode, on the per-op route (and so
 * on softfloat) in any other.
 */
template <Precision P>
void
blockResults(Rng &rng, std::vector<std::uint64_t> &out)
{
    const Format f = formatOf(P);
    OpCounts upper = expOpBound(f);
    for (OpKind k : {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div,
                     OpKind::Fma})
        ++upper[static_cast<std::size_t>(k)];
    for (int i = 0; i < 1000; ++i) {
        Fp<P> x[3];
        for (auto &v : x) {
            v = rng.chance(0.5) ? Fp<P>::fromBits(operand(rng, f))
                                : Fp<P>::fromDouble(rng.uniform(-4, 4));
        }
        runBlock<P>(upper, [&](auto load) {
            const auto a = load(x[0]);
            const auto b = load(x[1]);
            const auto c = load(x[2]);
            for (const auto &r : {a + b, a - b, a * b, a / b,
                                  fma(a, b, c), exp(-a)})
                out.push_back(r.bits());
        });
    }
}

/**
 * Soft round-to-nearest-even results of single/double add, mul, div,
 * sqrt, fma, the host-double conversions, and fma chains and
 * blocks in every memory format over random operands (subnormals
 * included), in one flat vector.
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
    for (Format f : {kSingle, kDouble, kHalf, kBfloat16}) {
        for (int i = 0; i < 400; ++i) {
            std::uint64_t a[16], b[16];
            const std::size_t n = 1 + rng.below(16);
            for (std::size_t k = 0; k < n; ++k) {
                a[k] = operand(rng, f);
                b[k] = rng.chance(0.5) ? operand(rng, f)
                                       : packFields(f, false, 0, 1);
            }
            out.push_back(chainBits(f, a, 1, b, 1, n, operand(rng, f)));
        }
    }
    blockResults<Precision::Half>(rng, out);
    blockResults<Precision::Single>(rng, out);
    blockResults<Precision::Double>(rng, out);
    blockResults<Precision::Bfloat16>(rng, out);
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
    // FpContext::opCount stands in for a trigger's `seen` at a golden
    // checkpoint: every counted op enters the trigger, the inner ops
    // of exp included.
    OperandCounter hook;
    StrikeTrigger strike;  // kind NumKinds: strikes nothing
    FpContext ctx;
    ctx.hook = &hook;
    ctx.strike = &strike;
    FpEnvGuard guard(ctx);
    const std::uint64_t x = fpFromDouble(kSingle, 3.0);
    (void)fpConvert(kDouble, kSingle, x);
    (void)fpAdd(kSingle, x, x);
    (void)fpExp(kSingle, x);
    EXPECT_EQ(ctx.count(OpKind::Convert), 1u);
    EXPECT_GT(ctx.totalOps(), 3u);
    EXPECT_EQ(ctx.opCount, strike.seen);
    EXPECT_TRUE(hook.seen.empty());
}

TEST(StrikeTriggerTest, OneShotIsExhaustedOncePlacedOrPassed)
{
    StrikeTrigger placed = StrikeTrigger::oneShot(OpKind::Mul, 2);
    EXPECT_FALSE(placed.exhausted());
    placed.hits = 1;
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

// ---------------------------------------------------------------
// fmaChain equals the per-op fma loop: result bits, op counts,
// trigger entries, hook calls and the fault's own tallies

/** A chain's operands, both read at one stride. */
struct ChainInput
{
    Format f;
    std::vector<std::uint64_t> a, b;
    std::size_t stride = 1;
    std::size_t n = 0;
    std::uint64_t acc = 0;
};

/** Lay @p a and @p b out at @p stride (other slots hold junk). */
ChainInput
makeChain(Format f, const std::vector<std::uint64_t> &a,
          const std::vector<std::uint64_t> &b, std::size_t stride,
          std::uint64_t acc)
{
    ChainInput in{f, {}, {}, stride, a.size(), acc};
    in.a.assign(a.size() * stride, quietNaN(f));
    in.b.assign(b.size() * stride, infinity(f, true));
    for (std::size_t i = 0; i < a.size(); ++i) {
        in.a[i * stride] = a[i];
        in.b[i * stride] = b[i];
    }
    return in;
}

std::uint64_t
fmaLoop(bool chain, const ChainInput &in)
{
    if (chain) {
        return chainBits(in.f, in.a.data(), in.stride, in.b.data(),
                         in.stride, in.n, in.acc);
    }
    std::uint64_t acc = in.acc;
    for (std::size_t i = 0; i < in.n; ++i)
        acc = fpFma(in.f, in.a[i * in.stride], in.b[i * in.stride], acc);
    return acc;
}

/** Counts every stage visit, forwarding it to an optional fault. */
class CountingHook : public FpHook
{
  public:
    explicit CountingHook(FpHook *inner = nullptr) : inner_(inner) {}

    std::uint64_t
    perturb(OpKind op, Stage stage, unsigned width, std::uint64_t value)
        override
    {
        ++calls;
        return inner_ ? inner_->perturb(op, stage, width, value) : value;
    }

    std::uint64_t calls = 0;

  private:
    FpHook *inner_;
};

/** How a compared loop's context is set up. */
struct ChainSetup
{
    std::string what = {};
    bool context = true;
    bool identityHook = false;  ///< a hook without a trigger
    /** An armed fault (hook + trigger), made fresh per route. */
    std::function<std::unique_ptr<fault::DatapathFault>()> fault = {};
};

/** Everything a loop leaves behind. */
struct LoopOutcome
{
    std::uint64_t result = 0;
    OpCounts counts{};
    std::uint64_t hookCalls = 0;
    bool fired = false;
    std::uint64_t hits = 0;

    bool operator==(const LoopOutcome &) const = default;
};

/** Fmas (and one add) run before the loop, so the trigger starts with
 *  entries of both kinds and a moved shared index. */
constexpr std::size_t kPrefixFmas = 3;

LoopOutcome
runLoop(bool chain, const ChainInput &in, const ChainSetup &setup)
{
    LoopOutcome out;
    if (!setup.context) {
        out.result = fmaLoop(chain, in);
        return out;
    }
    std::unique_ptr<fault::DatapathFault> fault =
        setup.fault ? setup.fault() : nullptr;
    CountingHook counter(fault.get());
    FpContext ctx;
    if (fault) {
        fault->arm(ctx);
        ctx.hook = &counter;
    } else if (setup.identityHook) {
        ctx.hook = &counter;
    }
    {
        FpEnvGuard guard(ctx);
        const std::uint64_t one = fpFromDouble(in.f, 1.0);
        (void)fpAdd(in.f, one, one);
        for (std::size_t i = 0; i < kPrefixFmas; ++i)
            (void)fpFma(in.f, one, one, one);
        out.result = fmaLoop(chain, in);
    }
    out.counts = ctx.opCount;
    out.hookCalls = counter.calls;
    if (auto *o = dynamic_cast<fault::OneShotDatapathHook *>(fault.get()))
        out.fired = o->fired();
    if (auto *p = dynamic_cast<fault::PersistentDatapathHook *>(
            fault.get()))
        out.hits = p->hits();
    return out;
}

void
expectChainMatchesLoop(const ChainInput &in, const ChainSetup &setup,
                       const std::string &what)
{
    const LoopOutcome per_op = runLoop(false, in, setup);
    const LoopOutcome chain = runLoop(true, in, setup);
    EXPECT_EQ(chain.result, per_op.result) << what << " " << setup.what
                                           << std::hex << " per-op "
                                           << per_op.result;
    EXPECT_EQ(chain, per_op) << what << " " << setup.what;
}

/** The setups every chain is compared under, for a run of @p n. */
std::vector<ChainSetup>
chainSetups(std::size_t n)
{
    std::vector<ChainSetup> out;
    out.push_back({"no context", false});
    out.push_back({"bare context"});
    out.push_back({"identity hook", true, true});
    if (n == 0)
        return out;
    const std::size_t positions[] = {0, n / 2, n - 1};
    for (std::size_t pos : positions) {
        for (Stage stage : {Stage::OperandC, Stage::ProductLo,
                            Stage::Result}) {
            ChainSetup s{"one-shot at " + std::to_string(pos) + " " +
                         stageName(stage)};
            s.fault = [pos, stage] {
                return std::make_unique<fault::OneShotDatapathHook>(
                    OpKind::Fma, kPrefixFmas + pos, stage, 0.9);
            };
            out.push_back(s);
        }
        for (std::uint64_t units : {1, 3, 5}) {
            const std::uint64_t unit = (kPrefixFmas + pos) % units;
            for (std::uint64_t period : {0, 4}) {
                ChainSetup s{"persistent " + std::to_string(unit) + "/" +
                             std::to_string(units) + " from " +
                             std::to_string(pos) + " period " +
                             std::to_string(period)};
                s.fault = [units, unit, period] {
                    return std::make_unique<fault::PersistentDatapathHook>(
                        OpKind::Fma, units, unit, Stage::PreRoundSig,
                        0.5, period, period ? 1 : 0, period ? 3 : 0,
                        fault::PersistMode::Flip);
                };
                out.push_back(s);
            }
        }
    }
    return out;
}

constexpr Format kChainFormats[] = {kHalf, kSingle, kDouble, kBfloat16};

TEST(FmaChain, RandomChainsMatchThePerOpLoop)
{
    Rng rng(31);
    for (Format f : kChainFormats) {
        for (std::size_t n : {0, 1, 7, 33}) {
            // Mostly moderate values, so the sum stays finite and
            // the specials' effect shows.
            std::vector<std::uint64_t> a(n), b(n);
            for (std::size_t i = 0; i < n; ++i) {
                const bool special = rng.chance(0.1);
                a[i] = special ? operand(rng, f)
                               : fpFromDouble(f, rng.uniform(-1.0, 1.0));
                b[i] = fpFromDouble(f, rng.uniform(-1.0, 1.0));
            }
            for (std::size_t stride : {std::size_t{1}, n}) {
                const ChainInput in =
                    makeChain(f, a, b, stride ? stride : 1, zero(f, false));
                const std::string what = "format " +
                    std::to_string(f.totalBits) + "/" +
                    std::to_string(f.manBits) + " n=" + std::to_string(n) +
                    " stride=" + std::to_string(stride);
                for (const ChainSetup &setup : chainSetups(n))
                    expectChainMatchesLoop(in, setup, what);
            }
        }
    }
}

TEST(FmaChain, SpecialValuesMatchThePerOpLoop)
{
    for (Format f : kChainFormats) {
        const std::uint64_t one = fpFromDouble(f, 1.0);
        const std::uint64_t two = fpFromDouble(f, 2.0);
        const std::uint64_t m_two = fpFromDouble(f, -2.0);
        const std::uint64_t payload =
            packFields(f, true, f.maxBiasedExp(), 1);  // signalling
        const std::uint64_t sub = packFields(f, false, 0, 3);
        const std::uint64_t inf = infinity(f, false);
        const std::uint64_t m_inf = infinity(f, true);
        const auto v = [f](double x) { return fpFromDouble(f, x); };
        // Just above the smallest normal: times 0.7 it rounds to a
        // subnormal.
        const std::uint64_t low = packFields(f, false, 1, 1);
        const std::uint64_t tiny = packFields(f, false, 0, 1);
        // big * big + tiny is an fma the host declines in half (a
        // product beyond half's range) and bfloat16 (a tie of the
        // product broken by the addend); see the assertion below.
        const std::uint64_t big = f == kHalf ? 0x7801 : 0x3f88;
        if (f == kHalf || f == kBfloat16) {
            ASSERT_EQ(detail::hostFma(f, big, big, tiny),
                      detail::kHostDeclined);
        }
        struct Case
        {
            const char *what;
            std::vector<std::uint64_t> a, b;
            std::uint64_t acc;
        };
        const Case cases[] = {
            {"exact cancellation to +0", {one, one}, {two, m_two},
             zero(f, false)},
            {"cancellation from -0", {one, one, one},
             {two, m_two, zero(f, true)}, zero(f, true)},
            {"NaN payload first", {payload, one, one}, {one, one, one}, one},
            {"NaN payload last", {one, one, payload}, {one, two, one}, one},
            {"NaN accumulator", {one, two}, {one, one}, payload},
            {"inf then -inf", {inf, one, m_inf}, {one, one, one}, one},
            {"inf times zero", {one, inf}, {one, zero(f, false)}, one},
            {"subnormal products", {sub, sub, sub}, {one, sub, one}, sub},
            {"subnormal sum cancels", {sub, sub}, {one, fpNeg(f, one)},
             zero(f, false)},
            // Half and bfloat16 runs carry the accumulator widened:
            // these leave round16's fast path mid-run and come back,
            // or end on the rare value.
            {"exact zero, subnormal, back to normal",
             {one, low, low, two, m_two, one},
             {fpNeg(f, one), v(0.7), v(-0.2), one, one, v(0.5)}, one},
            {"ends on a rounded subnormal", {one, low, tiny, tiny},
             {fpNeg(f, one), v(0.7), v(-0.25), v(0.5)}, one},
            {"overflow to inf, then NaN",
             {one, maxFinite(f, false), one, inf, one},
             {one, two, one, fpNeg(f, one), one}, v(0.5)},
            {"TwoSum decline mid-run", {one, tiny, big, one},
             {fpNeg(f, one), one, big, v(0.25)}, one},
        };
        for (const Case &k : cases) {
            for (std::size_t stride : {std::size_t{1}, k.a.size()}) {
                const ChainInput in = makeChain(f, k.a, k.b, stride, k.acc);
                for (const ChainSetup &setup : chainSetups(k.a.size()))
                    expectChainMatchesLoop(in, setup, k.what);
            }
        }
    }
}

TEST(FmaChain, Bfloat16DeclineAnywhereInTheRun)
{
    // 0x3f88^2 + 0x0001 is the fma the host declines (see
    // TinyAddendBreaksAProductTie); an element 0x0001 * 1 sets the
    // accumulator up for it, zeros around it leave it alone.
    const std::uint64_t one = 0x3f80, tie = 0x3f88, tiny = 0x0001;
    const std::size_t n = 9;
    for (std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
        std::vector<std::uint64_t> a(n, 0), b(n, 0);
        if (at > 0) {
            a[at - 1] = tiny;
            b[at - 1] = one;
        }
        a[at] = tie;
        b[at] = tie;
        for (std::size_t stride : {std::size_t{1}, n}) {
            const ChainInput in =
                makeChain(kBfloat16, a, b, stride, at == 0 ? tiny : 0);
            EXPECT_EQ(fmaLoop(true, in), 0x3f91u) << "decline at " << at;
            for (const ChainSetup &setup : chainSetups(n))
                expectChainMatchesLoop(in, setup,
                                       "decline at " + std::to_string(at));
        }
    }
}

TEST(FmaChain, HostModesFallBackToSoftfloat)
{
    // Directed rounding and FTZ/DAZ on the host: every element must
    // leave the native loop (HostModeIndependence covers the chain's
    // results; this pins its accounting under an armed fault too).
    Rng rng(8);
    std::vector<std::uint64_t> a(12), b(12);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = packFields(kSingle, false, 0, rng.below(1u << 20) + 1);
        b[i] = fpFromDouble(kSingle, rng.uniform(-1.0, 1.0));
    }
    const ChainInput in = makeChain(kSingle, a, b, 1, 0);
    for (HostMode mode : {HostMode::Upward, HostMode::TowardZero,
                          HostMode::FlushDenormals}) {
        const LoopOutcome want = runLoop(false, in, {"bare context"});
        HostModeGuard guard(mode);
        for (const ChainSetup &setup : chainSetups(in.n))
            expectChainMatchesLoop(in, setup, "host mode");
        EXPECT_EQ(runLoop(true, in, {"bare context"}), want);
    }
}

/** A persistent fault whose trigger state a test can read. */
class ReadablePersistent : public fault::PersistentDatapathHook
{
  public:
    using PersistentDatapathHook::PersistentDatapathHook;

    const StrikeTrigger &trigger() const { return trigger_; }
};

/** Everything a route leaves behind under a persistent fault. */
struct PersistentOutcome
{
    std::uint64_t result = 0;
    OpCounts counts{};
    OpCounts seen{};
    std::uint64_t current = 0;
    bool inWindow = false;
    std::uint64_t hits = 0;

    bool operator==(const PersistentOutcome &) const = default;
};

/**
 * The chain of @p in after kPrefixFmas fmas, under @p fault: armed
 * (trigger installed, fmaChain) or as the every-op hook with no
 * trigger (the per-op loop, every stage of every op on softfloat).
 */
PersistentOutcome
persistentRoute(bool armed, const ChainInput &in, ReadablePersistent &fault)
{
    FpContext ctx;
    if (armed)
        fault.arm(ctx);
    else
        ctx.hook = &fault;
    PersistentOutcome out;
    {
        FpEnvGuard guard(ctx);
        const std::uint64_t one = fpFromDouble(in.f, 1.0);
        for (std::size_t i = 0; i < kPrefixFmas; ++i)
            (void)fpFma(in.f, one, one, one);
        out.result = fmaLoop(armed, in);
    }
    out.counts = ctx.opCount;
    out.seen = fault.trigger().seen;
    out.current = fault.trigger().current;
    out.inWindow = fault.trigger().inWindow;
    out.hits = fault.hits();
    return out;
}

/**
 * A persistent fault on every fma stage, in every mode, for broken
 * units at several phases of several unit counts, with and without an
 * engine window: the armed chain leaves what the every-op hooked
 * softfloat loop leaves. Its masked loop applies the rule to struck
 * operands and finite non-zero results on the host and sends every
 * other struck op through fpFma (the product gate or the softfloat
 * body). The chains cross unit boundaries and reach zero, infinite
 * and NaN results mid-chain, where a struck result goes through
 * fpFma.
 */
TEST(FmaChain, PersistentStrikesMatchTheEveryOpRoute)
{
    std::size_t stage_count = 0;
    const auto &stages = fault::stagesFor(OpKind::Fma, stage_count);
    Rng rng(59);
    for (Format f : {kSingle, kDouble}) {
        const auto v = [f](double x) { return fpFromDouble(f, x); };
        const std::uint64_t big = maxFinite(f, false);
        const std::uint64_t inf = infinity(f, false);
        struct Chain
        {
            const char *what;
            std::vector<std::uint64_t> a, b;
        };
        std::vector<Chain> chains;
        for (std::size_t n : {5, 29, 61}) {
            Chain c{"random", {}, {}};
            for (std::size_t i = 0; i < n; ++i) {
                c.a.push_back(v(rng.uniform(-2.0, 2.0)));
                c.b.push_back(v(rng.uniform(-2.0, 2.0)));
            }
            chains.push_back(c);
        }
        // 1.5, 0, 1.5, 0, ...: an exact zero at every other op.
        Chain cancel{"zero every other op", {}, {}};
        for (std::size_t i = 0; i < 34; ++i) {
            cancel.a.push_back(v(1.5));
            cancel.b.push_back(v(i % 2 ? -1.0 : 1.0));
        }
        chains.push_back(cancel);
        // Overflow to infinity at op 9, NaN (inf - inf) from op 21.
        Chain specials{"infinity then NaN", {}, {}};
        for (std::size_t i = 0; i < 33; ++i) {
            specials.a.push_back(i == 9 ? big : i == 21 ? inf
                                                         : v(0.75));
            specials.b.push_back(i == 9 ? v(4.0) : i == 21 ? v(-1.0)
                                                            : v(0.5));
        }
        chains.push_back(specials);

        std::uint64_t compared = 0, chain_hits = 0;
        for (const Chain &c : chains) {
            const ChainInput in = makeChain(f, c.a, c.b, 1, zero(f, false));
            for (std::size_t s = 0; s < stage_count; ++s) {
                for (fault::PersistMode mode : {fault::PersistMode::Flip,
                                         fault::PersistMode::StuckAt0,
                                         fault::PersistMode::StuckAt1}) {
                    for (std::uint64_t units : {1, 2, 3, 16, 27, 28}) {
                        for (std::uint64_t unit :
                             {std::uint64_t{0}, units / 2, units - 1}) {
                            for (std::uint64_t period : {0, 10}) {
                                const double frac = rng.uniform();
                                const auto make = [&] {
                                    return ReadablePersistent(
                                        OpKind::Fma, units, unit, stages[s],
                                        frac, period, period ? 3 : 0,
                                        period ? 8 : 0, mode);
                                };
                                ReadablePersistent armed = make();
                                ReadablePersistent every = make();
                                const PersistentOutcome got =
                                    persistentRoute(true, in, armed);
                                const PersistentOutcome want =
                                    persistentRoute(false, in, every);
                                ASSERT_EQ(got, want)
                                    << f.totalBits << "-bit " << c.what
                                    << " n=" << in.n << " "
                                    << stageName(stages[s]) << " "
                                    << fault::persistModeName(mode)
                                    << " unit " << unit << "/" << units
                                    << " period " << period << " bit-frac "
                                    << frac << std::hex << " result "
                                    << got.result << " want "
                                    << want.result;
                                ++compared;
                                chain_hits += got.hits;
                            }
                        }
                    }
                }
            }
        }
        EXPECT_EQ(compared, 5u * 9u * 3u * 6u * 3u * 2u);
        EXPECT_GT(chain_hits, 10000u) << f.totalBits << "-bit";
    }
}

/**
 * Both compilations of the masked loop leave the same accumulator,
 * op counts, trigger state and hits, on chains with specials and NaN
 * payloads, under a persistent fault on every fma stage in every
 * mode.
 */
template <Precision P, class Run>
void
expectMaskedMatchesPlain(Run run, const char *what)
{
    constexpr Format f = formatOf(P);
    using Native = detail::Native<f>;
    std::size_t stage_count = 0;
    const auto &stages = fault::stagesFor(OpKind::Fma, stage_count);
    Rng rng(61);
    for (int round = 0; round < 3000; ++round) {
        const std::size_t n = rng.below(40) + 1;
        std::vector<Fp<P>> a, b;
        for (std::size_t i = 0; i < n; ++i) {
            for (auto *x : {&a, &b}) {
                x->push_back(Fp<P>::fromBits(
                    rng.chance(0.1) ? operand(rng, f)
                                    : fpFromDouble(f, rng.uniform(-4.0,
                                                                  4.0))));
            }
        }
        // Unit 0 of a fresh trigger strikes op 0, where the loop starts.
        const std::uint64_t units = rng.below(20) + 1;
        const Stage stage = stages[rng.below(stage_count)];
        const double frac = rng.uniform();
        const auto mode = static_cast<fault::PersistMode>(rng.below(3));
        const Native acc = detail::toNative<f>(operand(rng, f));
        const auto masked = [&](auto loop) {
            ReadablePersistent fault(OpKind::Fma, units, 0, stage, frac, 0,
                                     0, 0, mode);
            FpContext ctx;
            fault.arm(ctx);
            PersistentOutcome out;
            {
                FpEnvGuard guard(ctx);
                out.result = detail::toBits<f>(
                    loop(a.data(), std::size_t{1}, b.data(), std::size_t{1},
                         n, acc, ctx));
            }
            out.counts = ctx.opCount;
            out.seen = fault.trigger().seen;
            out.current = fault.trigger().current;
            out.inWindow = fault.trigger().inWindow;
            out.hits = fault.hits();
            return out;
        };
        const PersistentOutcome want = masked([](auto &&...args) {
            return detail::fmaMaskedPlain(args...);
        });
        ASSERT_EQ(masked(run), want)
            << what << " round " << round << " " << stageName(stage);
        ASSERT_EQ(want.counts[static_cast<std::size_t>(OpKind::Fma)], n);
    }
}

TEST(FmaMasked, FmaUnitCompilationMatchesPlain)
{
#if MPARCH_FP_FMA_UNIT
    if (!detail::hostHasFmaUnit)
        GTEST_SKIP() << "this CPU has no FMA instructions";
    expectMaskedMatchesPlain<Precision::Single>(
        [](auto &&...args) { return detail::fmaMaskedFmaUnit(args...); },
        "single");
    expectMaskedMatchesPlain<Precision::Double>(
        [](auto &&...args) { return detail::fmaMaskedFmaUnit(args...); },
        "double");
#else
    GTEST_SKIP() << "fmaMaskedFmaUnit is built for x86 only";
#endif
}

// ---------------------------------------------------------------
// fmaRun: the FMA-instruction and baseline compilations of the chain

/**
 * Random single/double chains (specials and NaN payloads included)
 * through detail::fmaRun* @p run, against the per-op softfloat loop.
 */
template <Precision P, class Run>
void
expectFmaRunMatchesSoftfloat(Run run, const char *what)
{
    constexpr Format f = formatOf(P);
    Rng rng(43);
    int nans = 0;
    for (int round = 0; round < 3000; ++round) {
        const std::size_t n = rng.below(6) + 1;
        std::vector<Fp<P>> a, b;
        for (std::size_t i = 0; i < n; ++i) {
            for (auto *v : {&a, &b}) {
                v->push_back(Fp<P>::fromBits(
                    rng.chance(0.3) ? operand(rng, f)
                                    : fpFromDouble(f, rng.uniform(-4.0,
                                                                  4.0))));
            }
        }
        const std::uint64_t acc =
            rng.chance(0.3) ? operand(rng, f)
                            : fpFromDouble(f, rng.uniform(-4.0, 4.0));
        const std::uint64_t want = forced([&] {
            std::uint64_t c = acc;
            for (std::size_t i = 0; i < n; ++i)
                c = fpFma(f, a[i].bits(), b[i].bits(), c);
            return c;
        });
        const std::uint64_t got = detail::toBits<f>(
            run(a.data(), 1, b.data(), 1, n, detail::toNative<f>(acc)));
        ASSERT_EQ(got, want) << what << " " << f.totalBits << "-bit round "
                             << round;
        nans += want == quietNaN(f);
    }
    EXPECT_GT(nans, 100) << what;  // canonicalised NaN results
}

TEST(FmaRun, PlainCompilationMatchesSoftfloat)
{
    expectFmaRunMatchesSoftfloat<Precision::Single>(
        [](auto... args) { return detail::fmaRunPlain(args...); }, "plain");
    expectFmaRunMatchesSoftfloat<Precision::Double>(
        [](auto... args) { return detail::fmaRunPlain(args...); }, "plain");
}

TEST(FmaRun, FmaUnitCompilationMatchesSoftfloat)
{
#if MPARCH_FP_FMA_UNIT
    if (!detail::hostHasFmaUnit)
        GTEST_SKIP() << "this CPU has no FMA instructions";
    expectFmaRunMatchesSoftfloat<Precision::Single>(
        [](auto... args) { return detail::fmaRunFmaUnit(args...); },
        "fma-unit");
    expectFmaRunMatchesSoftfloat<Precision::Double>(
        [](auto... args) { return detail::fmaRunFmaUnit(args...); },
        "fma-unit");
#else
    GTEST_SKIP() << "fmaRunFmaUnit is built for x86 only";
#endif
}

// ---------------------------------------------------------------
// hostStruck: struck boundary stages on the host

/** detail::hostStruck for one fma struck by @p fault, armed. */
std::optional<std::uint64_t>
struckFma(fault::DatapathFault &fault, Format f, std::uint64_t a,
          std::uint64_t b, std::uint64_t c)
{
    FpContext ctx;
    fault.arm(ctx);
    FpEnvGuard guard(ctx);
    const OpCtx oc = detail::enterOp(OpKind::Fma);
    EXPECT_TRUE(oc.hooked);
    return detail::hostStruck(f, oc, OpKind::Fma, a, b, c);
}

TEST(HostStruck, TakesBoundaryStagesAndDeclinesTheRest)
{
    using fault::PersistentDatapathHook;
    const auto broken = [](Stage stage) {
        return PersistentDatapathHook(OpKind::Fma, 1, 0, stage, 0.9);
    };
    for (Format f : {kSingle, kDouble}) {
        const std::uint64_t x = fpFromDouble(f, 1.5);
        const std::uint64_t big = maxFinite(f, false);
        for (Stage stage : {Stage::OperandA, Stage::OperandC,
                            Stage::Result}) {
            PersistentDatapathHook fault = broken(stage);
            EXPECT_TRUE(struckFma(fault, f, x, x, x).has_value())
                << stageName(stage);
            EXPECT_EQ(fault.hits(), 1u) << stageName(stage);
        }
        // Operands may be anything at an operand stage, and so may
        // they at the result when it is finite and non-zero.
        PersistentDatapathHook operand_b = broken(Stage::OperandB);
        EXPECT_TRUE(struckFma(operand_b, f, big, big, quietNaN(f)));
        PersistentDatapathHook zero_product = broken(Stage::Result);
        EXPECT_TRUE(struckFma(zero_product, f, x, zero(f, false), x));
        // A NaN, an overflow, an underflow to zero or a cancellation
        // may return before roundPack; inner stages stay on softfloat.
        const std::uint64_t tiny = packFields(f, false, 0, 1);
        for (auto [a, b, c] :
             {std::array{quietNaN(f), x, x}, std::array{big, big, x},
              std::array{tiny, fpFromDouble(f, 0.5), fpNeg(f, tiny)},
              std::array{x, fpFromDouble(f, 2.0), fpFromDouble(f, -3.0)}}) {
            PersistentDatapathHook result = broken(Stage::Result);
            EXPECT_FALSE(struckFma(result, f, a, b, c));
            EXPECT_EQ(result.hits(), 0u);
        }
        PersistentDatapathHook inner = broken(Stage::PreRoundSig);
        EXPECT_FALSE(struckFma(inner, f, x, x, x));
    }
    PersistentDatapathHook half = broken(Stage::OperandA);
    const std::uint64_t h = fpFromDouble(kHalf, 1.5);
    EXPECT_FALSE(struckFma(half, kHalf, h, h, h));
}

TEST(HostStruck, ProductGateTakesOnlyUnchangedProducts)
{
    using fault::PersistentDatapathHook;
    using fault::PersistMode;
    const auto broken = [](Stage stage, double frac, PersistMode mode) {
        return PersistentDatapathHook(OpKind::Fma, 1, 0, stage, frac, 0, 0,
                                      0, mode);
    };
    // 1.5 * 1.5 in single: significands 0xc00000, product 0x9 << 44,
    // so ProductLo bits 47 and 44 are set, bits 0-43 clear, and
    // ProductHi (1 bit wide) is 0.
    const std::uint64_t x = fpFromDouble(kSingle, 1.5);
    const std::uint64_t want = fpFromDouble(kSingle, 3.75);
    const double bit6 = 6.5 / 64, bit47 = 47.5 / 64;
    for (auto [stage, frac, mode, takes] :
         {std::tuple{Stage::ProductLo, bit6, PersistMode::StuckAt0, true},
          std::tuple{Stage::ProductLo, bit47, PersistMode::StuckAt1, true},
          std::tuple{Stage::ProductHi, 0.5, PersistMode::StuckAt0, true},
          std::tuple{Stage::ProductLo, bit6, PersistMode::StuckAt1, false},
          std::tuple{Stage::ProductLo, bit47, PersistMode::StuckAt0, false},
          std::tuple{Stage::ProductHi, 0.5, PersistMode::StuckAt1, false},
          std::tuple{Stage::ProductLo, bit6, PersistMode::Flip, false}}) {
        const std::string what = std::string(stageName(stage)) + " " +
                                  fault::persistModeName(mode) +
                                  " bit-frac " + std::to_string(frac);
        PersistentDatapathHook fault = broken(stage, frac, mode);
        const auto r = struckFma(fault, kSingle, x, x, x);
        EXPECT_EQ(r.has_value(), takes) << what;
        if (takes) {
            EXPECT_EQ(*r, want) << what;
        }
        // A declined op leaves its hit to the softfloat body.
        EXPECT_EQ(fault.hits(), takes ? 1u : 0u) << what;
    }
    // Operands that are not all finite return before the product.
    for (Format f : {kSingle, kDouble}) {
        const std::uint64_t one = fpFromDouble(f, 1.0);
        for (auto [a, b, c] : {std::array{quietNaN(f), one, one},
                               std::array{one, infinity(f, true), one},
                               std::array{one, one, infinity(f, false)}}) {
            PersistentDatapathHook fault =
                broken(Stage::ProductHi, 0.5, PersistMode::StuckAt0);
            EXPECT_FALSE(struckFma(fault, f, a, b, c));
            EXPECT_EQ(fault.hits(), 0u);
        }
    }
    PersistentDatapathHook half =
        broken(Stage::ProductHi, 0.5, PersistMode::StuckAt0);
    const std::uint64_t h = fpFromDouble(kHalf, 1.5);
    EXPECT_FALSE(struckFma(half, kHalf, h, h, h));
}

// ---------------------------------------------------------------
// HostFp: the host ops of a block

TEST(HostFp, UnfusedMulAddMatchesSoftfloat)
{
    // (1 + 2^-12)^2 - (1 + 2^-11): the product rounds to 1 + 2^-11
    // (a tie, to even), so a*b+c is 0 while the fused result keeps
    // the 2^-24. A contracted host a*b+c would return the latter.
    const std::uint64_t a = fpFromDouble(kSingle, 1.0 + 0x1p-12);
    const std::uint64_t c = fpFromDouble(kSingle, -(1.0 + 0x1p-11));
    const std::uint64_t unfused =
        forced([&] { return fpAdd(kSingle, fpMul(kSingle, a, a), c); });
    ASSERT_NE(unfused, forced([&] { return fpFma(kSingle, a, a, c); }));
    HostTally tally;
    using Single = Fp<Precision::Single>;
    const HostFp<Precision::Single> x(Single::fromBits(a), tally);
    const HostFp<Precision::Single> z(Single::fromBits(c), tally);
    EXPECT_EQ((x * x + z).bits(), unfused);
    EXPECT_EQ(tally.ops[static_cast<std::size_t>(OpKind::Mul)], 1u);
    EXPECT_EQ(tally.ops[static_cast<std::size_t>(OpKind::Add)], 1u);
    EXPECT_EQ(tally.last, OpKind::Add);
}

/** Records each fma's operands (at OperandC, the last operand read)
 *  and how many fmas ran before each tick. */
class FmaRecorder : public FpHook
{
  public:
    std::uint64_t
    perturb(OpKind op, Stage stage, unsigned, std::uint64_t value)
        override
    {
        if (op == OpKind::Fma) {
            if (stage == Stage::OperandA)
                pending_[0] = value;
            else if (stage == Stage::OperandB)
                pending_[1] = value;
            else if (stage == Stage::OperandC)
                fmas.push_back({pending_[0], pending_[1], value});
        }
        return value;
    }

    std::vector<std::array<std::uint64_t, 3>> fmas;
    std::vector<std::size_t> tickStarts;

  private:
    std::uint64_t pending_[2] = {};
};

TEST(BlockGate, Bfloat16DeclinesInsideHostBlocks)
{
    // lavamd bfloat16 at scale 0.1 runs 14,880 fmas, a few of which
    // the host declines; in the bare context every box pair is one
    // host block, so each decline falls back to the softfloat body
    // in the middle of a block, and the block carries on.
    auto w = workloads::makeWorkload("lavamd", Precision::Bfloat16, 0.1);
    const auto run = [&](FpContext &ctx, FmaRecorder *rec) {
        w->reset(11);
        workloads::ExecutionEnv env;
        if (rec)
            env.onTick = [rec](std::uint64_t) {
                rec->tickStarts.push_back(rec->fmas.size());
            };
        {
            FpEnvGuard guard(ctx);
            w->execute(env);
        }
        std::vector<std::uint64_t> out;
        const workloads::BufferView view = w->output();
        for (std::size_t i = 0; i < view.count; ++i)
            out.push_back(view.get(i));
        return out;
    };
    FmaRecorder rec;
    FpContext forced_ctx;
    forced_ctx.hook = &rec;
    const std::vector<std::uint64_t> want = run(forced_ctx, &rec);
    ASSERT_EQ(rec.fmas.size(), 14880u);
    rec.tickStarts.push_back(rec.fmas.size());

    std::size_t declined = 0, mid_block = 0;
    for (std::size_t t = 0; t + 1 < rec.tickStarts.size(); ++t) {
        for (std::size_t i = rec.tickStarts[t]; i < rec.tickStarts[t + 1];
             ++i) {
            const auto &[a, b, c] = rec.fmas[i];
            if (detail::hostFma(kBfloat16, a, b, c) !=
                detail::kHostDeclined)
                continue;
            ++declined;
            mid_block += i > rec.tickStarts[t] &&
                         i + 1 < rec.tickStarts[t + 1];
        }
    }
    EXPECT_GT(declined, 0u);
    EXPECT_GT(mid_block, 0u);

    FpContext bare;
    EXPECT_EQ(run(bare, nullptr), want);
    EXPECT_EQ(bare.opCount, forced_ctx.opCount);
}

} // namespace
} // namespace mparch::fp

/**
 * @file
 * Tests for the fault-injection framework: fault models, campaign
 * accounting, and the precision-criticality property the paper's TRE
 * analysis rests on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "fault/campaign.hh"
#include "fault/hooks.hh"
#include "fault/model.hh"
#include "nn/nn_workloads.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace mparch::fault {
namespace {

using fp::OpKind;
using fp::Precision;
using fp::Stage;
using workloads::makeWorkload;

TEST(FaultModelTest, SingleBitFlipChangesExactlyOneBit)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.next() & maskBits(16);
        const std::uint64_t c =
            applyFault(FaultModel::SingleBitFlip, rng, 16, v);
        EXPECT_EQ(popcount(v ^ c), 1);
        EXPECT_EQ(c & ~maskBits(16), 0u);
    }
}

TEST(FaultModelTest, DoubleBitFlipChangesAdjacentBits)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.next();
        const std::uint64_t c =
            applyFault(FaultModel::DoubleBitFlip, rng, 64, v);
        const std::uint64_t diff = v ^ c;
        const int bits = popcount(diff);
        EXPECT_TRUE(bits == 2 || bits == 1);
        if (bits == 2) {
            const int lo = std::countr_zero(diff);
            EXPECT_TRUE(testBit(diff, static_cast<unsigned>(lo + 1)));
        }
    }
}

TEST(FaultModelTest, RandomByteConfinedToOneByte)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.next() & maskBits(32);
        const std::uint64_t c =
            applyFault(FaultModel::RandomByte, rng, 32, v);
        const std::uint64_t diff = v ^ c;
        if (diff == 0)
            continue;
        const int lo = std::countr_zero(diff) / 8;
        EXPECT_EQ(diff & ~(0xffULL << (8 * lo)), 0u);
    }
}

TEST(FaultModelTest, RandomValueStaysInWidth)
{
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t c =
            applyFault(FaultModel::RandomValue, rng, 10, 0x3ff);
        EXPECT_EQ(c & ~maskBits(10), 0u);
    }
}

TEST(GoldenRunTest, CapturesOutputTicksAndOps)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    const GoldenRun golden(*w, 42);
    EXPECT_GT(golden.ticks, 0u);
    EXPECT_FALSE(golden.outputBits.empty());
    EXPECT_GT(golden.ops.count(OpKind::Fma), 0u);
    // Re-running with the same seed reproduces the same golden.
    const GoldenRun again(*w, 42);
    EXPECT_EQ(golden.outputBits, again.outputBits);
    EXPECT_EQ(golden.ticks, again.ticks);
}

TEST(MemoryCampaignTest, AccountingIsConsistent)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 300;
    const CampaignResult r = test::acceptedCampaign(
        *w, CampaignKind::Memory, config);
    EXPECT_EQ(r.trials, 300u);
    EXPECT_EQ(r.masked + r.sdc + r.due, r.trials);
    EXPECT_EQ(r.corpus.size(), r.sdc);
    // A GEMM where every buffer feeds the output: a good share of
    // flips must propagate, but low mantissa flips in already-written
    // outputs always count as SDC too, so AVF is well above zero.
    EXPECT_GT(r.avfSdc(), 0.2);
    EXPECT_LE(r.avfSdc(), 1.0);
    const Interval ci = r.avfSdc95();
    EXPECT_TRUE(ci.contains(r.avfSdc()));
}

TEST(MemoryCampaignTest, DeterministicGivenSeed)
{
    auto w = makeWorkload("lud", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 100;
    config.seed = 5;
    const CampaignResult a =
        test::acceptedCampaign(*w, CampaignKind::Memory, config);
    const CampaignResult b =
        test::acceptedCampaign(*w, CampaignKind::Memory, config);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.due, b.due);
}

TEST(MemoryCampaignTest, PvfSimilarAcrossPrecisions)
{
    // Paper Section 5.2: with the same algorithm and hardware, the
    // probability of propagation (PVF) is similar for single and
    // double. Allow a generous band.
    CampaignConfig config;
    config.trials = 400;
    auto wd = makeWorkload("mxm", Precision::Double, 0.1);
    auto ws = makeWorkload("mxm", Precision::Single, 0.1);
    const double pd =
        test::acceptedCampaign(*wd, CampaignKind::Memory, config).avfSdc();
    const double ps =
        test::acceptedCampaign(*ws, CampaignKind::Memory, config).avfSdc();
    EXPECT_NEAR(pd, ps, 0.15);
}

TEST(DatapathCampaignTest, AccountingAndDeterminism)
{
    auto w = makeWorkload("micro-mul", Precision::Half, 0.1);
    CampaignConfig config;
    config.trials = 200;
    const CampaignResult a = test::acceptedCampaign(
        *w, CampaignKind::Datapath, config);
    EXPECT_EQ(a.trials, 200u);
    EXPECT_EQ(a.masked + a.sdc + a.due, a.trials);
    const CampaignResult b = test::acceptedCampaign(
        *w, CampaignKind::Datapath, config);
    EXPECT_EQ(a.sdc, b.sdc);
}

TEST(DatapathCampaignTest, KindFilterRestrictsStrikes)
{
    // lavamd executes mul, add, sub, fma; filtering to Mul must still
    // produce a valid campaign.
    auto w = makeWorkload("lavamd", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 100;
    const CampaignResult r = test::acceptedCampaign(
        *w, CampaignKind::Datapath, config, OpKind::Mul);
    EXPECT_EQ(r.trials, 100u);
    EXPECT_GT(r.sdc + r.masked, 0u);
}

TEST(DatapathCampaignTest, DoubleDeviationsSmallerThanHalf)
{
    // The paper's central criticality claim (Figures 4, 8, 11): a
    // fault in lower-precision data/operations deviates the output
    // more. Median SDC deviation for half must exceed double's.
    CampaignConfig config;
    config.trials = 600;
    auto wd = makeWorkload("micro-mul", Precision::Double, 0.1);
    auto wh = makeWorkload("micro-mul", Precision::Half, 0.1);
    const CampaignResult rd = test::acceptedCampaign(
        *wd, CampaignKind::Datapath, config);
    const CampaignResult rh = test::acceptedCampaign(
        *wh, CampaignKind::Datapath, config);
    // Fraction of SDCs with deviation above 0.1%: half's errors are
    // concentrated in high-impact bits.
    EXPECT_GT(rh.survivingFraction(0.001),
              rd.survivingFraction(0.001));
}

TEST(CampaignResultTest, SurvivingFractionMonotone)
{
    auto w = makeWorkload("mxm", Precision::Half, 0.1);
    CampaignConfig config;
    config.trials = 300;
    const CampaignResult r = test::acceptedCampaign(
        *w, CampaignKind::Memory, config);
    ASSERT_GT(r.sdc, 10u);
    double prev = 1.1;
    for (double tre : {0.0, 1e-4, 1e-2, 1.0, 100.0}) {
        const double s = r.survivingFraction(tre);
        EXPECT_LE(s, prev);
        prev = s;
    }
    EXPECT_DOUBLE_EQ(r.survivingFraction(0.0), 1.0);
}

TEST(RelativeDeviationTest, ZeroGoldenRecordsAbsoluteDeviation)
{
    const fp::Format f = fp::formatOf(Precision::Single);
    const std::uint64_t zero = fp::fpFromDouble(f, 0.0);
    const std::uint64_t half = fp::fpFromDouble(f, 0.5);
    const std::uint64_t four = fp::fpFromDouble(f, 4.0);
    // Zero golden: absolute deviation, not infinity.
    EXPECT_DOUBLE_EQ(relativeDeviation(f, half, zero), 0.5);
    EXPECT_DOUBLE_EQ(relativeDeviation(f, zero, zero), 0.0);
    // Non-zero golden: the usual relative measure.
    EXPECT_DOUBLE_EQ(relativeDeviation(f, half, four), 0.875);
    // Non-finite values still classify as unbounded deviation.
    const std::uint64_t inf = fp::fpFromDouble(f, 1e39);
    EXPECT_TRUE(std::isinf(relativeDeviation(f, inf, four)));
}

TEST(PersistentCampaignTest, BrokenOperatorCorruptsMoreOutput)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 150;
    // One broken operator among 16 physical fma units.
    EngineAllocation fma;
    fma.engine.name = fp::opKindName(OpKind::Fma);
    fma.engine.kind = OpKind::Fma;
    fma.units = 16;
    const CampaignResult persistent = test::acceptedCampaign(
        *w, CampaignKind::Persistent, config, OpKind::NumKinds, {fma});
    const CampaignResult transient = test::acceptedCampaign(
        *w, CampaignKind::Datapath, config);
    EXPECT_EQ(persistent.trials, 150u);
    ASSERT_GT(persistent.sdc, 0u);
    // A broken physical unit touches many operations; the average
    // corrupted output fraction must exceed the one-shot case.
    auto mean_frac = [](const CampaignResult &r) {
        double sum = 0.0;
        for (const auto &rec : r.corpus)
            sum += rec.corruptedFraction;
        return r.corpus.empty() ? 0.0 : sum / r.corpus.size();
    };
    EXPECT_GT(mean_frac(persistent), mean_frac(transient));
}

TEST(OneShotHookTest, FiresExactlyOnce)
{
    OneShotDatapathHook hook(OpKind::Mul, 1, Stage::Result, 0.0);
    fp::FpContext ctx;
    ctx.hook = &hook;
    fp::FpEnvGuard guard(ctx);
    const auto a = fp::Fp<Precision::Single>::fromDouble(1.5);
    const auto r0 = a * a;  // op 0: untouched
    const auto r1 = a * a;  // op 1: corrupted result bit 0
    const auto r2 = a * a;  // op 2: untouched
    EXPECT_TRUE(hook.fired());
    EXPECT_EQ(r0.bits(), r2.bits());
    EXPECT_EQ(r1.bits() ^ 1u, r0.bits());
}

TEST(PersistentHookTest, HitsEveryNthOp)
{
    PersistentDatapathHook hook(OpKind::Add, 4, 2, Stage::Result, 0.0);
    fp::FpContext ctx;
    ctx.hook = &hook;
    fp::FpEnvGuard guard(ctx);
    const auto a = fp::Fp<Precision::Single>::fromDouble(1.0);
    for (int i = 0; i < 12; ++i)
        (void)(a + a);
    EXPECT_EQ(hook.hits(), 3u);  // ops 2, 6, 10
}

TEST(StageTablesTest, WeightsPositiveForAllListedStages)
{
    for (auto kind : {OpKind::Add, OpKind::Sub, OpKind::Mul,
                      OpKind::Fma, OpKind::Div, OpKind::Sqrt,
                      OpKind::Convert}) {
        std::size_t count = 0;
        const auto &stages = stagesFor(kind, count);
        ASSERT_GT(count, 0u);
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_GT(stageWidthEstimate(stages[i], fp::kHalf), 0u);
            EXPECT_GT(stageWidthEstimate(stages[i], fp::kDouble), 0u);
        }
    }
}

} // namespace
} // namespace mparch::fault

namespace mparch::fault {
namespace {

TEST(FaultAnatomyTest, BitFieldClassification)
{
    using F = FaultAnatomy::Field;
    // binary16: bit 15 sign, 10..14 exponent, 5..9 high, 0..4 low.
    EXPECT_EQ(bitField(fp::kHalf, 15), F::Sign);
    EXPECT_EQ(bitField(fp::kHalf, 14), F::Exponent);
    EXPECT_EQ(bitField(fp::kHalf, 10), F::Exponent);
    EXPECT_EQ(bitField(fp::kHalf, 9), F::MantissaHigh);
    EXPECT_EQ(bitField(fp::kHalf, 5), F::MantissaHigh);
    EXPECT_EQ(bitField(fp::kHalf, 4), F::MantissaLow);
    EXPECT_EQ(bitField(fp::kHalf, 0), F::MantissaLow);
    // binary64: bit 63 sign, 52..62 exponent.
    EXPECT_EQ(bitField(fp::kDouble, 63), F::Sign);
    EXPECT_EQ(bitField(fp::kDouble, 52), F::Exponent);
    EXPECT_EQ(bitField(fp::kDouble, 51), F::MantissaHigh);
    EXPECT_EQ(bitField(fp::kDouble, 25), F::MantissaLow);
}

TEST(FaultAnatomyTest, MemoryCampaignRecordsEveryTrial)
{
    auto w = workloads::makeWorkload("mxm", Precision::Half, 0.1);
    CampaignConfig config;
    config.trials = 200;
    config.recordAnatomy = true;
    const CampaignResult r = test::acceptedCampaign(
        *w, CampaignKind::Memory, config);
    EXPECT_EQ(r.anatomy.size(), r.trials);
    std::uint64_t sdc = 0, exponentFlips = 0, exponentSdc = 0;
    for (const auto &a : r.anatomy) {
        EXPECT_GE(a.bit, 0);
        EXPECT_LT(a.bit, 16);
        sdc += a.outcome == OutcomeKind::Sdc;
        if (a.field == FaultAnatomy::Field::Exponent) {
            ++exponentFlips;
            exponentSdc += a.outcome == OutcomeKind::Sdc;
        }
    }
    EXPECT_EQ(sdc, r.sdc);
    // Over 30% of exponent flips propagate.
    ASSERT_GT(exponentFlips, 0u);
    EXPECT_GT(static_cast<double>(exponentSdc) /
                  static_cast<double>(exponentFlips),
              0.3);
}

TEST(FaultAnatomyTest, DisabledByDefault)
{
    auto w = workloads::makeWorkload("mxm", Precision::Half, 0.1);
    CampaignConfig config;
    config.trials = 50;
    const CampaignResult r =
        test::acceptedCampaign(*w, CampaignKind::Memory, config);
    EXPECT_TRUE(r.anatomy.empty());
}

// ---------------------------------------------------------------------
// relativeDeviation edge cases. The SDC severity histograms and the
// paper's TRE threshold sweep are built on this one function, so its
// conventions at the boundaries are load-bearing: non-finite values
// saturate to infinity (any NaN/Inf corruption is maximally severe),
// a zero golden value falls back to absolute deviation, and signed
// zeros compare equal.
// ---------------------------------------------------------------------

TEST(RelativeDeviationTest, FiniteValuesAreRelative)
{
    const auto f = fp::kDouble;
    const auto golden = fp::fpFromDouble(f, 2.0);
    const auto corrupted = fp::fpFromDouble(f, 2.5);
    EXPECT_DOUBLE_EQ(relativeDeviation(f, corrupted, golden), 0.25);
    // Symmetric in sign of the deviation, not of the arguments.
    const auto below = fp::fpFromDouble(f, 1.5);
    EXPECT_DOUBLE_EQ(relativeDeviation(f, below, golden), 0.25);
    const auto neg = fp::fpFromDouble(f, -2.0);
    EXPECT_DOUBLE_EQ(relativeDeviation(f, corrupted, neg), 2.25);
}

TEST(RelativeDeviationTest, IdenticalBitsDeviateByZero)
{
    const auto f = fp::kHalf;
    for (const std::uint64_t bits : {0x3c00ULL, 0x0001ULL, 0xfbffULL})
        EXPECT_EQ(relativeDeviation(f, bits, bits), 0.0);
}

TEST(RelativeDeviationTest, NonFiniteCorruptionSaturates)
{
    const auto f = fp::kHalf;
    const auto golden = fp::fpFromDouble(f, 1.0);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(relativeDeviation(f, fp::quietNaN(f), golden), inf);
    EXPECT_EQ(relativeDeviation(f, fp::infinity(f, false), golden), inf);
    EXPECT_EQ(relativeDeviation(f, fp::infinity(f, true), golden), inf);
}

TEST(RelativeDeviationTest, NonFiniteGoldenSaturates)
{
    // A golden Inf/NaN output makes a relative measure meaningless;
    // the campaign records it as maximally severe rather than 0/0.
    const auto f = fp::kHalf;
    const auto finite = fp::fpFromDouble(f, 1.0);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(relativeDeviation(f, finite, fp::quietNaN(f)), inf);
    EXPECT_EQ(relativeDeviation(f, finite, fp::infinity(f, false)), inf);
    // Both non-finite — even bit-identical NaNs — still saturate.
    EXPECT_EQ(relativeDeviation(f, fp::quietNaN(f), fp::quietNaN(f)),
              inf);
    EXPECT_EQ(relativeDeviation(f, fp::infinity(f, false),
                                fp::infinity(f, false)),
              inf);
}

TEST(RelativeDeviationTest, ZeroGoldenFallsBackToAbsolute)
{
    const auto f = fp::kHalf;
    const auto zero = fp::zero(f, false);
    const auto half = fp::fpFromDouble(f, 0.5);
    const auto negq = fp::fpFromDouble(f, -0.25);
    EXPECT_DOUBLE_EQ(relativeDeviation(f, half, zero), 0.5);
    EXPECT_DOUBLE_EQ(relativeDeviation(f, negq, zero), 0.25);
    // ... for either sign of the golden zero.
    EXPECT_DOUBLE_EQ(relativeDeviation(f, half, fp::zero(f, true)),
                     0.5);
}

TEST(RelativeDeviationTest, SignedZerosCompareEqual)
{
    // -0 vs +0 is a bit flip in the sign position but numerically no
    // deviation at all; the severity metric must not flag it.
    const auto f = fp::kHalf;
    EXPECT_EQ(relativeDeviation(f, fp::zero(f, true), fp::zero(f, false)),
              0.0);
    EXPECT_EQ(relativeDeviation(f, fp::zero(f, false), fp::zero(f, true)),
              0.0);
}

TEST(RelativeDeviationTest, SubnormalGoldenStaysRelative)
{
    // Subnormals are finite and non-zero: the relative path applies,
    // with no hidden flush to the absolute fallback.
    const auto f = fp::kHalf;
    const std::uint64_t one_ulp = 0x0001;   // smallest subnormal
    const std::uint64_t two_ulp = 0x0002;
    EXPECT_DOUBLE_EQ(relativeDeviation(f, two_ulp, one_ulp), 1.0);
}

TEST(RelativeDeviationTest, LowMantissaFlipIsSmallHighIsLarge)
{
    // The shape the whole bit-anatomy argument rests on, in one line:
    // flipping mantissa bit 0 of 1.0 deviates by one ULP; flipping
    // the top exponent bit deviates by far more than 100%.
    const auto f = fp::kHalf;
    const auto golden = fp::fpFromDouble(f, 1.0);
    EXPECT_NEAR(relativeDeviation(f, golden ^ 1u, golden), 0x1.0p-10,
                1e-12);
    EXPECT_GT(relativeDeviation(f, golden ^ (1ull << 14), golden), 1.0);
}

TEST(FaultAnatomyTest, LowMantissaCriticalityGrowsAsPrecisionShrinks)
{
    // The paper's introductory hypothesis, quantified: the share of
    // low-mantissa SDCs exceeding 1% deviation is ~0 in double and
    // substantial in half.
    CampaignConfig config;
    config.trials = 600;
    config.recordAnatomy = true;
    auto critical_share = [&](Precision p) {
        auto w = workloads::makeWorkload("mxm", p, 0.1);
        const CampaignResult r = test::acceptedCampaign(
            *w, CampaignKind::Memory, config);
        std::uint64_t sdc = 0, critical = 0;
        for (const auto &a : r.anatomy) {
            if (a.field != FaultAnatomy::Field::MantissaLow ||
                a.outcome != OutcomeKind::Sdc) {
                continue;
            }
            ++sdc;
            critical += a.maxRel > 0.01;
        }
        return sdc ? static_cast<double>(critical) / sdc : 0.0;
    };
    const double d = critical_share(Precision::Double);
    const double h = critical_share(Precision::Half);
    EXPECT_LT(d, 0.05);
    EXPECT_GT(h, d + 0.1);
}

// ---------------------------------------------------------------------
// Gate equivalence. An armed fault (hook plus strike trigger) sends
// only its struck ops through the softfloat stages and lets every
// other op take the host FPU, one op at a time or, in the block-gated
// kernels (micro, lavamd, the fma chains of mxm and the CNNs), a whole
// un-struck block at once; the same fault behind a generic FpHook
// subclass instruments every op and advances the trigger at OperandA
// visits, as the counting hooks did. Both must corrupt the same ops:
// equal outputs, fired() and hits().
// ---------------------------------------------------------------------

/** A generic hook around a fault: forces every op to be instrumented. */
class EveryOp : public fp::FpHook
{
  public:
    explicit EveryOp(fp::FpHook &fault) : fault_(fault) {}

    std::uint64_t
    perturb(OpKind op, Stage stage, unsigned width,
            std::uint64_t value) override
    {
        return fault_.perturb(op, stage, width, value);
    }

  private:
    fp::FpHook &fault_;
};

/** Output bits of one execution, plus the watchdog verdict. */
struct Execution
{
    std::vector<std::uint64_t> out;
    bool aborted = false;

    bool operator==(const Execution &) const = default;
};

constexpr std::uint64_t kGateInputSeed = 11;

Execution
execute(workloads::Workload &w, DatapathFault &fault, bool gated,
        std::uint64_t tick_budget)
{
    w.reset(kGateInputSeed);
    workloads::ExecutionEnv env;
    env.tickBudget = tick_budget;
    EveryOp every(fault);
    fp::FpContext ctx;
    if (gated)
        fault.arm(ctx);
    else
        ctx.hook = &every;
    {
        fp::FpEnvGuard guard(ctx);
        w.execute(env);
    }
    Execution e;
    const workloads::BufferView view = w.output();
    for (std::size_t i = 0; i < view.count; ++i)
        e.out.push_back(view.get(i));
    e.aborted = env.aborted();
    return e;
}

/** Golden op counts per kind and tick count of @p w. */
std::pair<fp::FpContext, std::uint64_t>
goldenMix(workloads::Workload &w)
{
    w.reset(kGateInputSeed);
    workloads::ExecutionEnv env;
    fp::FpContext ctx;
    {
        fp::FpEnvGuard guard(ctx);
        w.execute(env);
    }
    return {ctx, env.ticks()};
}

const OpKind kGateKinds[] = {OpKind::Add, OpKind::Sub, OpKind::Mul,
                             OpKind::Fma, OpKind::Div, OpKind::Sqrt,
                             OpKind::Exp, OpKind::Convert};

struct GateCase
{
    const char *name;
    Precision precision;
};

class GateEquivalenceTest : public ::testing::TestWithParam<GateCase>
{};

TEST_P(GateEquivalenceTest, OneShotFaultsMatchEveryOpInstrumented)
{
    auto w =
        nn::makeAnyWorkload(GetParam().name, GetParam().precision, 0.1);
    const auto [mix, ticks] = goldenMix(*w);
    Rng rng(5);
    int cases = 0;
    int fired = 0;
    for (OpKind kind : kGateKinds) {
        const std::uint64_t n = mix.count(kind);
        if (n == 0)
            continue;
        std::size_t stage_count = 0;
        const auto &stages = stagesFor(kind, stage_count);
        for (std::uint64_t index : {std::uint64_t{0}, n / 2, n - 1,
                                    rng.below(n)}) {
            for (std::size_t s = 0; s < stage_count; ++s) {
                const double frac = rng.uniform();
                OneShotDatapathHook gated(kind, index, stages[s], frac);
                OneShotDatapathHook every(kind, index, stages[s], frac);
                const Execution a = execute(*w, gated, true, 4 * ticks);
                const Execution b = execute(*w, every, false, 4 * ticks);
                EXPECT_EQ(a, b) << fp::opKindName(kind) << " #" << index
                                << " " << fp::stageName(stages[s]);
                EXPECT_EQ(gated.fired(), every.fired());
                ++cases;
                fired += gated.fired();
            }
        }
    }
    EXPECT_GT(cases, 20);
    EXPECT_GT(fired, cases / 2);
}

TEST_P(GateEquivalenceTest, PersistentFaultsMatchEveryOpInstrumented)
{
    auto w =
        nn::makeAnyWorkload(GetParam().name, GetParam().precision, 0.1);
    const auto [mix, ticks] = goldenMix(*w);
    Rng rng(6);
    int cases = 0;
    for (OpKind kind : kGateKinds) {
        const std::uint64_t n = mix.count(kind);
        if (n == 0)
            continue;
        std::size_t stage_count = 0;
        const auto &stages = stagesFor(kind, stage_count);
        for (std::uint64_t units : {1, 3, 16}) {
            for (PersistMode mode : {PersistMode::Flip,
                                     PersistMode::StuckAt0,
                                     PersistMode::StuckAt1}) {
                // Whole stream, or an engine window within a period.
                const std::uint64_t period = rng.chance(0.5) ? 0
                                             : 1 + rng.below(n);
                const std::uint64_t lo = period ? rng.below(period) : 0;
                const std::uint64_t hi =
                    period ? lo + 1 + rng.below(period - lo) : 0;
                const std::uint64_t unit = rng.below(units);
                const Stage stage = stages[rng.below(stage_count)];
                const double frac = rng.uniform();
                PersistentDatapathHook gated(kind, units, unit, stage,
                                             frac, period, lo, hi,
                                             mode);
                PersistentDatapathHook every(kind, units, unit, stage,
                                             frac, period, lo, hi,
                                             mode);
                const Execution a = execute(*w, gated, true, 4 * ticks);
                const Execution b = execute(*w, every, false, 4 * ticks);
                EXPECT_EQ(a, b) << fp::opKindName(kind) << " unit "
                                << unit << "/" << units << " "
                                << fp::stageName(stage) << " "
                                << persistModeName(mode);
                EXPECT_EQ(gated.hits(), every.hits());
                ++cases;
            }
        }
    }
    EXPECT_GE(cases, 9);  // three unit counts x three modes per kind
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GateEquivalenceTest,
    ::testing::Values(GateCase{"mxm", Precision::Single},
                      GateCase{"lud", Precision::Single},
                      GateCase{"mxm", Precision::Half},
                      // The block gate's kernels, in every format.
                      GateCase{"lavamd", Precision::Single},
                      GateCase{"lavamd", Precision::Double},
                      GateCase{"lavamd", Precision::Half},
                      GateCase{"lavamd", Precision::Bfloat16},
                      GateCase{"micro-add", Precision::Single},
                      GateCase{"micro-add", Precision::Double},
                      GateCase{"micro-add", Precision::Half},
                      GateCase{"micro-add", Precision::Bfloat16},
                      GateCase{"micro-mul", Precision::Single},
                      GateCase{"micro-mul", Precision::Double},
                      GateCase{"micro-mul", Precision::Half},
                      GateCase{"micro-mul", Precision::Bfloat16},
                      GateCase{"micro-fma", Precision::Single},
                      GateCase{"micro-fma", Precision::Double},
                      GateCase{"micro-fma", Precision::Half},
                      GateCase{"micro-fma", Precision::Bfloat16},
                      // The CNNs' dot products are fma chains too.
                      GateCase{"mnist", Precision::Single},
                      GateCase{"mnist", Precision::Double},
                      GateCase{"mnist", Precision::Half},
                      GateCase{"mnist", Precision::Bfloat16},
                      GateCase{"yolite", Precision::Single},
                      GateCase{"yolite", Precision::Double},
                      GateCase{"yolite", Precision::Half},
                      GateCase{"yolite", Precision::Bfloat16}),
    [](const auto &info) {
        std::string name = std::string(info.param.name) + "_" +
                           std::string(fp::precisionName(
                               info.param.precision));
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

/**
 * A scripted op stream in @p f over zeros, NaNs, infinities and
 * subnormals: struck ops that return early before their stage, and
 * exp/log, whose inner ops move the shared one-shot index between the
 * outer op's stages. The last operands overflow to infinity or
 * underflow (or cancel) to zero from finite non-zero operands, where
 * the host route of a struck Result stage hands the op back to
 * softfloat.
 */
std::vector<std::uint64_t>
scriptedOps(fp::Format f)
{
    const std::uint64_t big = fp::maxFinite(f, false);
    const std::uint64_t tiny = fp::packFields(f, false, 0, 1);
    const std::uint64_t values[] = {
        fp::fpFromDouble(f, 1.5),    fp::zero(f, false),
        fp::quietNaN(f),             fp::infinity(f, true),
        fp::packFields(f, false, 0, 5), fp::fpFromDouble(f, -2.25),
        fp::maxFinite(f, false),     fp::fpFromDouble(f, 0.75),
    };
    struct Operands
    {
        std::uint64_t a, b, c;
    };
    std::vector<Operands> operands;
    for (std::size_t i = 0; i < std::size(values); ++i) {
        operands.push_back({values[i], values[(i + 3) % std::size(values)],
                            values[(i + 5) % std::size(values)]});
    }
    // big+big, big*big, fma overflow; big-big cancels; -big*2
    // overflows; big/tiny overflows; tiny*0.5, tiny/big and
    // tiny*0.5-tiny underflow to zero; 1.5*2-3 cancels.
    operands.push_back({big, big, big});
    operands.push_back({fp::fpNeg(f, big), fp::fpFromDouble(f, 2.0), big});
    operands.push_back({big, tiny, fp::fpNeg(f, big)});
    operands.push_back({tiny, fp::fpFromDouble(f, 0.5), fp::fpNeg(f, tiny)});
    operands.push_back({tiny, big, tiny});
    operands.push_back({fp::fpFromDouble(f, 1.5), fp::fpFromDouble(f, 2.0),
                        fp::fpFromDouble(f, -3.0)});
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < operands.size(); ++i) {
        const auto [a, b, c] = operands[i];
        out.push_back(fp::fpAdd(f, a, b));
        out.push_back(fp::fpMul(f, a, b));
        out.push_back(fp::fpFma(f, a, b, c));
        out.push_back(fp::fpExp(f, a));
        out.push_back(fp::fpSub(f, a, c));
        out.push_back(fp::fpDiv(f, a, b));
        out.push_back(fp::fpSqrt(f, a));
        out.push_back(fp::fpLog(f, a));
        out.push_back(fp::fpConvert(fp::kDouble, f, a));
    }
    return out;
}

std::vector<std::uint64_t>
scripted(fp::Format f, DatapathFault &fault, bool gated)
{
    EveryOp every(fault);
    fp::FpContext ctx;
    if (gated)
        fault.arm(ctx);
    else
        ctx.hook = &every;
    fp::FpEnvGuard guard(ctx);
    return scriptedOps(f);
}

/** Bit fractions that strike a mantissa, an exponent and the sign
 *  bit of a single or double operand or result (the stage width
 *  times the fraction, rounded down). */
constexpr double kScriptBitFracs[] = {0.3, 0.9, 0.99};

/**
 * The armed route (struck single/double operand and result stages on
 * the host, detail::hostStruck) against the every-op hooked softfloat
 * route: same result bits, fired() and hits() for every kind, index,
 * stage, persist mode and bit position of the script.
 */
TEST(GateScriptTest, EdgeCasesEveryKindIndexAndStage)
{
    for (fp::Format f : {fp::kSingle, fp::kDouble}) {
        fp::FpContext mix;
        {
            fp::FpEnvGuard guard(mix);
            (void)scriptedOps(f);
        }
        int fired = 0;
        int hit = 0;
        for (OpKind kind : kGateKinds) {
            ASSERT_GT(mix.count(kind), 0u) << fp::opKindName(kind);
            for (int s = 0; s < static_cast<int>(Stage::NumStages); ++s) {
                const auto stage = static_cast<Stage>(s);
                for (double frac : kScriptBitFracs) {
                    const std::string what =
                        std::to_string(f.totalBits) + "-bit " +
                        fp::opKindName(kind) + " " +
                        fp::stageName(stage) + " bit-frac " +
                        std::to_string(frac);
                    for (std::uint64_t index = 0; index < mix.count(kind);
                         ++index) {
                        OneShotDatapathHook gated(kind, index, stage, frac);
                        OneShotDatapathHook every(kind, index, stage, frac);
                        EXPECT_EQ(scripted(f, gated, true),
                                  scripted(f, every, false))
                            << what << " #" << index;
                        EXPECT_EQ(gated.fired(), every.fired())
                            << what << " #" << index;
                        fired += gated.fired();
                    }
                    for (PersistMode mode :
                         {PersistMode::Flip, PersistMode::StuckAt0,
                          PersistMode::StuckAt1}) {
                        for (std::uint64_t units : {1, 2, 3}) {
                            for (std::uint64_t unit = 0; unit < units;
                                 ++unit) {
                                PersistentDatapathHook gated(
                                    kind, units, unit, stage, frac, 0, 0,
                                    0, mode);
                                PersistentDatapathHook every(
                                    kind, units, unit, stage, frac, 0, 0,
                                    0, mode);
                                EXPECT_EQ(scripted(f, gated, true),
                                          scripted(f, every, false))
                                    << what << " " << persistModeName(mode)
                                    << " unit " << unit << "/" << units;
                                EXPECT_EQ(gated.hits(), every.hits())
                                    << what << " " << persistModeName(mode)
                                    << " unit " << unit << "/" << units;
                                hit += gated.hits() > 0;
                            }
                        }
                    }
                }
            }
        }
        EXPECT_GT(fired, 300) << f.totalBits << "-bit";
        EXPECT_GT(hit, 1000) << f.totalBits << "-bit";
    }
}

} // namespace
} // namespace mparch::fault

/**
 * @file
 * Tests for the datapath hook machinery: op counting, stage
 * perturbation, context nesting.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "fp/softfloat.hh"
#include "fp/value.hh"

namespace mparch::fp {
namespace {

using FpHalf = Fp<Precision::Half>;
using FpSingle = Fp<Precision::Single>;
using FpDouble = Fp<Precision::Double>;

/** Hook that records every stage visit. */
class RecordingHook : public FpHook
{
  public:
    struct Visit
    {
        OpKind op;
        Stage stage;
        unsigned width;
        std::uint64_t value;
    };

    std::uint64_t
    perturb(OpKind op, Stage stage, unsigned width,
            std::uint64_t value) override
    {
        visits.push_back({op, stage, width, value});
        return value;
    }

    bool
    sawStage(Stage s) const
    {
        for (const auto &v : visits)
            if (v.stage == s)
                return true;
        return false;
    }

    std::vector<Visit> visits;
};

/** Hook that flips one bit at one (op-kind, stage) the first time. */
class OneShotFlip : public FpHook
{
  public:
    OneShotFlip(OpKind op, Stage stage, unsigned bit)
        : op_(op), stage_(stage), bit_(bit)
    {}

    std::uint64_t
    perturb(OpKind op, Stage stage, unsigned width,
            std::uint64_t value) override
    {
        if (!fired_ && op == op_ && stage == stage_ && bit_ < width) {
            fired_ = true;
            return value ^ (1ULL << bit_);
        }
        return value;
    }

    bool fired() const { return fired_; }

  private:
    OpKind op_;
    Stage stage_;
    unsigned bit_;
    bool fired_ = false;
};

TEST(FpContextTest, CountsOpsByKind)
{
    FpContext ctx;
    {
        FpEnvGuard guard(ctx);
        const auto a = FpDouble::fromDouble(1.25);
        const auto b = FpDouble::fromDouble(2.5);
        (void)(a + b);
        (void)(a - b);
        (void)(a * b);
        (void)(a / b);
        (void)fma(a, b, a);
        (void)sqrt(b);
    }
    EXPECT_EQ(ctx.count(OpKind::Add), 1u);
    EXPECT_EQ(ctx.count(OpKind::Sub), 1u);
    EXPECT_EQ(ctx.count(OpKind::Mul), 1u);
    EXPECT_EQ(ctx.count(OpKind::Div), 1u);
    EXPECT_EQ(ctx.count(OpKind::Fma), 1u);
    EXPECT_EQ(ctx.count(OpKind::Sqrt), 1u);
    EXPECT_EQ(ctx.totalOps(), 6u);
}

TEST(FpContextTest, NoContextMeansNoCounting)
{
    EXPECT_EQ(currentContext(), nullptr);
    const auto a = FpSingle::fromDouble(3.0);
    (void)(a * a);  // must not crash without a context
    EXPECT_EQ(currentContext(), nullptr);
}

TEST(FpContextTest, GuardsNest)
{
    FpContext outer, inner;
    FpEnvGuard g1(outer);
    EXPECT_EQ(currentContext(), &outer);
    {
        FpEnvGuard g2(inner);
        EXPECT_EQ(currentContext(), &inner);
        const auto a = FpHalf::fromDouble(1.0);
        (void)(a + a);
    }
    EXPECT_EQ(currentContext(), &outer);
    EXPECT_EQ(inner.count(OpKind::Add), 1u);
    EXPECT_EQ(outer.count(OpKind::Add), 0u);
}

TEST(FpContextTest, ExpCountsConstituentOps)
{
    FpContext ctx;
    {
        FpEnvGuard guard(ctx);
        (void)exp(FpDouble::fromDouble(0.7));
    }
    EXPECT_EQ(ctx.count(OpKind::Exp), 1u);
    // Range reduction + Horner chain runs real FMA/MUL ops.
    EXPECT_GE(ctx.count(OpKind::Fma), 10u);
    EXPECT_GE(ctx.count(OpKind::Mul), 1u);
}

TEST(HookStages, AddVisitsExpectedStages)
{
    FpContext ctx;
    RecordingHook hook;
    ctx.hook = &hook;
    {
        FpEnvGuard guard(ctx);
        (void)(FpDouble::fromDouble(1.5) + FpDouble::fromDouble(2.25));
    }
    EXPECT_TRUE(hook.sawStage(Stage::OperandA));
    EXPECT_TRUE(hook.sawStage(Stage::OperandB));
    EXPECT_TRUE(hook.sawStage(Stage::AlignedSigA));
    EXPECT_TRUE(hook.sawStage(Stage::AlignedSigB));
    EXPECT_TRUE(hook.sawStage(Stage::PreRoundSig));
    EXPECT_TRUE(hook.sawStage(Stage::ExponentLogic));
    EXPECT_TRUE(hook.sawStage(Stage::Result));
    EXPECT_FALSE(hook.sawStage(Stage::ProductLo));
}

TEST(HookStages, MulVisitsProductStages)
{
    FpContext ctx;
    RecordingHook hook;
    ctx.hook = &hook;
    {
        FpEnvGuard guard(ctx);
        (void)(FpDouble::fromDouble(1.5) * FpDouble::fromDouble(2.25));
    }
    EXPECT_TRUE(hook.sawStage(Stage::ProductLo));
    EXPECT_TRUE(hook.sawStage(Stage::ProductHi));
    EXPECT_TRUE(hook.sawStage(Stage::Result));
}

TEST(HookStages, FmaVisitsOperandC)
{
    FpContext ctx;
    RecordingHook hook;
    ctx.hook = &hook;
    {
        FpEnvGuard guard(ctx);
        (void)fma(FpSingle::fromDouble(2.0), FpSingle::fromDouble(3.0),
                  FpSingle::fromDouble(4.0));
    }
    EXPECT_TRUE(hook.sawStage(Stage::OperandC));
    EXPECT_TRUE(hook.sawStage(Stage::ProductLo));
}

TEST(HookFlips, OperandFlipChangesResult)
{
    FpContext ctx;
    OneShotFlip hook(OpKind::Mul, Stage::OperandA, 52);  // top mantissa
    ctx.hook = &hook;
    double corrupted;
    {
        FpEnvGuard guard(ctx);
        corrupted = (FpDouble::fromDouble(1.5) *
                     FpDouble::fromDouble(2.0)).toDouble();
    }
    EXPECT_TRUE(hook.fired());
    EXPECT_NE(corrupted, 3.0);
}

TEST(HookFlips, LowProductBitUsuallyRoundedAway)
{
    // A flip in bit 0 of the 128-bit product of two doubles sits ~53
    // positions below the kept significand: rounding absorbs it.
    FpContext ctx;
    OneShotFlip hook(OpKind::Mul, Stage::ProductLo, 0);
    ctx.hook = &hook;
    double corrupted;
    {
        FpEnvGuard guard(ctx);
        corrupted = (FpDouble::fromDouble(1.0000001) *
                     FpDouble::fromDouble(1.9999999)).toDouble();
    }
    EXPECT_TRUE(hook.fired());
    EXPECT_DOUBLE_EQ(corrupted, 1.0000001 * 1.9999999);
}

TEST(HookFlips, HalfProductFlipMoreVisible)
{
    // In binary16 the same low product bit is only ~11 positions
    // below the kept significand of this product; flipping a mid
    // product bit changes the rounded result.
    FpContext ctx;
    OneShotFlip hook(OpKind::Mul, Stage::ProductLo, 9);
    ctx.hook = &hook;
    std::uint64_t corrupted;
    {
        FpEnvGuard guard(ctx);
        corrupted = (FpHalf::fromDouble(1.5) *
                     FpHalf::fromDouble(1.2001953125)).bits();
    }
    const std::uint64_t clean =
        fpMul(kHalf, fpFromDouble(kHalf, 1.5),
              fpFromDouble(kHalf, 1.2001953125));
    EXPECT_TRUE(hook.fired());
    EXPECT_NE(corrupted, clean);
}

// ---------------------------------------------------------------------
// Hook invariance: installing a hook must observe, never perturb.
//
// The injector relies on a split-brain property of the softfloat core:
// the un-struck majority of operations in a faulty trial run with a
// hook installed but returning every value unchanged, and those must
// be byte-identical to the golden (unhooked) run — otherwise faulty
// and golden outputs differ for reasons other than the injected fault
// and every SDC classification is suspect. Pin it for every op at
// every stage in every format, on a spread of operand patterns.
// ---------------------------------------------------------------------

/** Run every instrumented op on one operand triple; fold the results. */
std::uint64_t
runAllOps(Format f, std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    // Mix with distinct multipliers so results can't cancel in pairs.
    std::uint64_t digest = 0;
    int i = 1;
    for (std::uint64_t r : {
             fpAdd(f, a, b), fpSub(f, a, b), fpMul(f, a, b),
             fpDiv(f, a, b), fpFma(f, a, b, c), fpSqrt(f, a),
             fpExp(f, a), fpLog(f, a),
             fpConvert(kDouble, f, a), fpConvert(kHalf, f, a),
             fpConvert(kBfloat16, f, a), fpConvert(kSingle, f, a)}) {
        digest ^= Rng::mix(r, static_cast<std::uint64_t>(i++));
    }
    return digest;
}

TEST(HookInvariance, NoOpHookIsByteIdenticalToFastPath)
{
    // A default-constructed FpHook is the identity perturbation and
    // forces the softfloat path; with no context at all the host-FPU
    // gate takes every admissible op.
    for (const Format f : {kHalf, kSingle, kDouble, kBfloat16, kTf32}) {
        Rng rng(0x1009 ^ f.totalBits);
        for (int trial = 0; trial < 200; ++trial) {
            const std::uint64_t a = rng.next() & f.valueMask();
            const std::uint64_t b = rng.next() & f.valueMask();
            const std::uint64_t c = rng.next() & f.valueMask();

            const std::uint64_t plain = runAllOps(f, a, b, c);

            FpContext ctx;
            FpHook identity;
            ctx.hook = &identity;
            std::uint64_t hooked;
            {
                FpEnvGuard guard(ctx);
                hooked = runAllOps(f, a, b, c);
            }
            ASSERT_EQ(hooked, plain)
                << "format " << f.totalBits << "-bit, operands " << a
                << " " << b << " " << c;
        }
    }
}

TEST(HookInvariance, RecordingHookIsByteIdenticalToFastPath)
{
    // Same, for a hook that records visits but returns values intact —
    // the shape every trigger-not-yet-met injector has.
    for (const Format f : {kHalf, kSingle, kDouble, kBfloat16, kTf32}) {
        Rng rng(0x77e57 ^ f.totalBits);
        const std::uint64_t a = rng.next() & f.valueMask();
        const std::uint64_t b = rng.next() & f.valueMask();
        const std::uint64_t c = rng.next() & f.valueMask();

        const std::uint64_t plain = runAllOps(f, a, b, c);

        FpContext ctx;
        RecordingHook hook;
        ctx.hook = &hook;
        std::uint64_t hooked;
        {
            FpEnvGuard guard(ctx);
            hooked = runAllOps(f, a, b, c);
        }
        EXPECT_EQ(hooked, plain);
        EXPECT_FALSE(hook.visits.empty());
    }
}

TEST(HookInvariance, SpecialValuesUnperturbed)
{
    // The special-value early exits bypass most datapath stages; make
    // sure the hooked path agrees there too (NaN, infinities, zeros,
    // subnormals, extremes).
    for (const Format f : {kHalf, kSingle, kDouble, kBfloat16, kTf32}) {
        const std::uint64_t patterns[] = {
            0, f.valueMask() >> 1, quietNaN(f), infinity(f, false),
            infinity(f, true), 1, f.manMask(),
            packFields(f, true, 0, 1), maxFinite(f, false),
            fpFromDouble(f, 1.0), fpFromDouble(f, -2.5),
        };
        for (const std::uint64_t a : patterns) {
            for (const std::uint64_t b : patterns) {
                const std::uint64_t plain = runAllOps(f, a, b, b);
                FpContext ctx;
                FpHook identity;
                ctx.hook = &identity;
                std::uint64_t hooked;
                {
                    FpEnvGuard guard(ctx);
                    hooked = runAllOps(f, a, b, b);
                }
                ASSERT_EQ(hooked, plain)
                    << "format " << f.totalBits << "-bit, a=" << a
                    << " b=" << b;
            }
        }
    }
}

TEST(HookFlips, ExponentFlipScalesResult)
{
    FpContext ctx;
    OneShotFlip hook(OpKind::Add, Stage::ExponentLogic, 0);
    ctx.hook = &hook;
    double corrupted;
    {
        FpEnvGuard guard(ctx);
        corrupted = (FpDouble::fromDouble(1.0) +
                     FpDouble::fromDouble(1.0)).toDouble();
    }
    // Flipping exponent bit 0 halves or doubles the magnitude.
    EXPECT_TRUE(corrupted == 1.0 || corrupted == 4.0) << corrupted;
}

// ---------------------------------------------------------------
// Strike-trigger run arithmetic: unstruck() + skip() equal stepping
// enter()/strikes() one op at a time

/** The state enter() advances. */
void
expectSameState(const StrikeTrigger &a, const StrikeTrigger &b,
                const std::string &what)
{
    EXPECT_EQ(a.seen, b.seen) << what;
    EXPECT_EQ(a.current, b.current) << what;
    EXPECT_EQ(a.inWindow, b.inWindow) << what;
    EXPECT_EQ(a.spent, b.spent) << what;
    EXPECT_EQ(a.exhausted(), b.exhausted()) << what;
}

/** A one-shot trigger on Fma whose index falls before, at either end
 *  of, inside or after the run of @p n entries from @p start. */
StrikeTrigger
randomOneShot(Rng &rng, std::uint64_t start, std::uint64_t n)
{
    std::uint64_t index = 0;
    switch (rng.below(5)) {
      case 0: index = start ? rng.below(start) : 0; break;
      case 1: index = start; break;
      case 2: index = start + (n ? n - 1 : 0); break;
      case 3: index = start + rng.below(n + 1); break;
      default: index = start + n + rng.below(8); break;
    }
    StrikeTrigger t = StrikeTrigger::oneShot(OpKind::Fma, index);
    t.spent = rng.chance(0.1);
    return t;
}

/** A persistent trigger on Fma: units 1-17, the whole stream, a
 *  window within a period, or an empty window. */
StrikeTrigger
randomPersistent(Rng &rng)
{
    const std::uint64_t units = 1 + rng.below(17);
    const std::uint64_t unit = rng.below(units);
    std::uint64_t period = 0, lo = 0, hi = 0;
    switch (rng.below(3)) {
      case 0:
        break;
      case 1:
        period = 1 + rng.below(40);
        lo = rng.below(period);
        hi = lo + 1 + rng.below(period - lo);
        break;
      default:  // empty: lo >= hi
        period = 1 + rng.below(40);
        hi = rng.below(period);
        lo = hi + rng.below(3);
        break;
    }
    return StrikeTrigger::persistent(OpKind::Fma, units, unit, period,
                                     lo, hi);
}

TEST(StrikeTriggerRuns, UnstruckAndSkipMatchSteppingEnter)
{
    Rng rng(2019);
    int struck_runs = 0;
    for (int iter = 0; iter < 40000; ++iter) {
        const std::uint64_t start = rng.below(300);
        const std::uint64_t n = rng.below(65);
        StrikeTrigger t = rng.chance(0.5) ? randomOneShot(rng, start, n)
                                          : randomPersistent(rng);
        // Random prior state, as after a checkpoint resume or ops of
        // other kinds; the run is of the trigger's kind or not.
        for (auto &s : t.seen)
            s = rng.below(50);
        t.seen[static_cast<std::size_t>(OpKind::Fma)] = start;
        t.current = rng.below(400);
        t.inWindow = rng.chance(0.5);
        const OpKind op = rng.chance(0.8) ? OpKind::Fma : OpKind::Add;
        const std::string what = "iter " + std::to_string(iter);

        StrikeTrigger stepped = t;
        std::uint64_t first = n;
        for (std::uint64_t i = 0; i < n; ++i) {
            stepped.enter(op);
            if (first == n && stepped.strikes(op))
                first = i;
        }
        ASSERT_EQ(t.unstruck(op, n), first) << what;
        struck_runs += first < n;

        StrikeTrigger whole = t;
        whole.skip(op, n);
        expectSameState(whole, stepped, what + " whole run");

        // A prefix, as the host takes it before a struck op.
        const std::uint64_t m = rng.below(n + 1);
        StrikeTrigger prefix = t;
        StrikeTrigger prefix_stepped = t;
        prefix.skip(op, m);
        for (std::uint64_t i = 0; i < m; ++i)
            prefix_stepped.enter(op);
        expectSameState(prefix, prefix_stepped, what + " prefix");
    }
    EXPECT_GT(struck_runs, 10000);
}

/** A random block: ops of a few kinds, the armed kind more often. */
std::vector<OpKind>
randomBlock(Rng &rng, OpKind armed)
{
    const OpKind kinds[] = {OpKind::Add, OpKind::Sub, OpKind::Mul,
                            OpKind::Fma, OpKind::Exp};
    std::vector<OpKind> block(rng.below(41));
    for (auto &op : block)
        op = rng.chance(0.4) ? armed : kinds[rng.below(5)];
    return block;
}

TEST(StrikeTriggerRuns, BlocksMatchSteppingEnter)
{
    // peekBlock/commitBlock against enterOp one op at a time, for
    // random multi-kind blocks under random triggers: the gate gives
    // a block to the host only if no op in it is struck, always when
    // its exact counts are un-struck, and committing the exact counts
    // leaves the context and the trigger where stepping leaves them.
    Rng rng(2121);
    FpHook identity;
    int host_blocks = 0, struck_blocks = 0, short_host_blocks = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        const OpKind armed = rng.chance(0.5) ? OpKind::Fma : OpKind::Mul;
        const std::vector<OpKind> block = randomBlock(rng, armed);
        OpCounts exact{};
        for (OpKind op : block)
            ++exact[static_cast<std::size_t>(op)];
        const std::uint64_t start = rng.below(300);
        const std::uint64_t armed_ops =
            exact[static_cast<std::size_t>(armed)];
        StrikeTrigger t = rng.chance(0.5)
                              ? randomOneShot(rng, start, armed_ops)
                              : randomPersistent(rng);
        t.kind = armed;
        for (auto &s : t.seen)
            s = rng.below(50);
        t.seen[static_cast<std::size_t>(armed)] = start;
        t.current = rng.below(400);
        t.inWindow = rng.chance(0.5);
        // The bound: the exact counts, sometimes with slack, as a
        // block with data-dependent ops declares it.
        OpCounts upper = exact;
        for (auto &n : upper)
            n += rng.chance(0.3) ? rng.below(4) : 0;
        const OpKind last = block.empty() ? OpKind::NumKinds : block.back();
        const std::string what = "iter " + std::to_string(iter);

        StrikeTrigger stepped = t;
        FpContext step_ctx;
        step_ctx.hook = &identity;
        step_ctx.strike = &stepped;
        bool struck = false;
        {
            FpEnvGuard guard(step_ctx);
            for (OpKind op : block)
                struck |= detail::enterOp(op).hooked;
        }

        StrikeTrigger gated = t;
        FpContext gate_ctx;
        gate_ctx.hook = &identity;
        gate_ctx.strike = &gated;
        {
            FpEnvGuard guard(gate_ctx);
            const OpCounts run = detail::peekBlock(upper);
            for (std::size_t k = 0; k < run.size(); ++k) {
                ASSERT_EQ(run[k],
                          t.unstruck(static_cast<OpKind>(k), upper[k]))
                    << what << " kind " << k;
            }
            const bool host = run == upper;
            if (host) {
                ASSERT_FALSE(struck) << what;
            }
            if (upper == exact && !struck) {
                ASSERT_TRUE(host) << what;
            }
            host_blocks += host;
            short_host_blocks += host && upper != exact;
            struck_blocks += struck;
            detail::commitBlock(exact, last);
        }
        expectSameState(gated, stepped, what);
        EXPECT_EQ(gate_ctx.opCount, step_ctx.opCount) << what;
    }
    EXPECT_GT(host_blocks, 5000);
    EXPECT_GT(struck_blocks, 2000);
    EXPECT_GT(short_host_blocks, 1000);
}

} // namespace
} // namespace mparch::fp

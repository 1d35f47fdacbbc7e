/**
 * @file
 * Tests for the benchmark implementations: determinism, op mixes,
 * numeric sanity across precisions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "workloads/lavamd.hh"
#include "workloads/lud.hh"
#include "workloads/micro.hh"
#include <bit>

#include "workloads/mxm.hh"
#include "workloads/mxm_mixed.hh"
#include "workloads/workload.hh"
#include "test_util.hh"

namespace mparch::workloads {
namespace {

using fp::OpKind;
using fp::Precision;

/** Run a workload fault-free and return its output bits. */
std::vector<std::uint64_t>
runOnce(Workload &w, std::uint64_t seed, fp::FpContext *ctx = nullptr)
{
    w.reset(seed);
    ExecutionEnv env;
    if (ctx) {
        fp::FpEnvGuard guard(*ctx);
        w.execute(env);
    } else {
        w.execute(env);
    }
    const BufferView out = w.output();
    std::vector<std::uint64_t> bits(out.count);
    for (std::size_t i = 0; i < out.count; ++i)
        bits[i] = out.get(i);
    return bits;
}

class AllWorkloads
    : public ::testing::TestWithParam<std::tuple<std::string, Precision>>
{};

TEST_P(AllWorkloads, DeterministicAcrossRuns)
{
    const auto &[name, prec] = GetParam();
    auto w = makeWorkload(name, prec, 0.2);
    const auto first = runOnce(*w, 7);
    const auto second = runOnce(*w, 7);
    EXPECT_EQ(first, second);
}

TEST_P(AllWorkloads, SeedChangesOutput)
{
    const auto &[name, prec] = GetParam();
    auto w = makeWorkload(name, prec, 0.2);
    EXPECT_NE(runOnce(*w, 7), runOnce(*w, 8));
}

TEST_P(AllWorkloads, OutputIsFinite)
{
    const auto &[name, prec] = GetParam();
    auto w = makeWorkload(name, prec, 0.2);
    const auto bits = runOnce(*w, 7);
    const fp::Format f = fp::formatOf(prec);
    for (std::uint64_t b : bits)
        EXPECT_TRUE(fp::isFinite(f, b)) << name;
}

TEST_P(AllWorkloads, BuffersIncludeOutputAndAreMutable)
{
    const auto &[name, prec] = GetParam();
    auto w = makeWorkload(name, prec, 0.2);
    w->reset(1);
    auto views = w->buffers();
    ASSERT_FALSE(views.empty());
    const std::string out_name = w->output().name;
    bool found = false;
    for (auto &view : views) {
        ASSERT_GT(view.count, 0u) << view.name;
        found = found || view.name == out_name;
        // get/set roundtrip and mutation.
        const std::uint64_t orig = view.get(0);
        view.set(0, orig ^ 1);
        EXPECT_EQ(view.get(0), orig ^ 1);
        view.set(0, orig);
    }
    EXPECT_TRUE(found) << "output buffer missing from buffers()";
}

TEST_P(AllWorkloads, TicksAreCounted)
{
    const auto &[name, prec] = GetParam();
    auto w = makeWorkload(name, prec, 0.2);
    w->reset(3);
    ExecutionEnv env;
    w->execute(env);
    EXPECT_GT(env.ticks(), 0u);
}

TEST_P(AllWorkloads, WatchdogAbortsExecution)
{
    const auto &[name, prec] = GetParam();
    auto w = makeWorkload(name, prec, 0.2);
    w->reset(3);
    ExecutionEnv env;
    env.tickBudget = 1;
    w->execute(env);
    EXPECT_TRUE(env.aborted());
    EXPECT_LE(env.ticks(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllWorkloads,
    ::testing::Combine(
        ::testing::Values("mxm", "lavamd", "lud", "hotspot",
                          "micro-add", "micro-mul", "micro-fma"),
        ::testing::Values(Precision::Double, Precision::Single,
                          Precision::Half)),
    [](const auto &info) {
        std::string tag =
            std::get<0>(info.param) + "_" +
            std::string(fp::precisionName(std::get<1>(info.param)));
        for (auto &ch : tag)
            if (ch == '-')
                ch = '_';
        return tag;
    });

TEST(MxM, MatchesHostDoubleReference)
{
    MxMWorkload<Precision::Double> w(0.2);
    const auto bits = runOnce(w, 11);
    // Recompute one output element on the host.
    w.reset(11);
    auto views = w.buffers();
    const auto &a = views[0];
    const auto &b = views[1];
    const std::size_t n = test::matrixSide(w.output());
    for (std::size_t probe : {std::size_t{0}, n * n / 2, n * n - 1}) {
        const std::size_t i = probe / n, j = probe % n;
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
            acc = std::fma(
                fp::fpToDouble(fp::kDouble, a.get(i * n + k)),
                fp::fpToDouble(fp::kDouble, b.get(k * n + j)), acc);
        }
        EXPECT_DOUBLE_EQ(acc, fp::fpToDouble(fp::kDouble, bits[probe]));
    }
}

TEST(MxM, OpMixIsPureFma)
{
    MxMWorkload<Precision::Single> w(0.2);
    fp::FpContext ctx;
    runOnce(w, 1, &ctx);
    const std::size_t n = test::matrixSide(w.output());
    EXPECT_EQ(ctx.count(OpKind::Fma), n * n * n);
    EXPECT_EQ(ctx.count(OpKind::Mul), 0u);
    EXPECT_EQ(ctx.count(OpKind::Add), 0u);
}

TEST(LavaMD, MulDominatesNonFmaMix)
{
    // The paper attributes LavaMD's GPU FIT trend to its MUL-heavy
    // instruction mix (Section 6.1).
    LavaMDWorkload<Precision::Single> w(0.5);
    fp::FpContext ctx;
    runOnce(w, 1, &ctx);
    const auto mul = ctx.count(OpKind::Mul);
    EXPECT_GT(mul, ctx.count(OpKind::Add));
    EXPECT_GT(mul, ctx.count(OpKind::Sub));
    EXPECT_GT(ctx.count(OpKind::Exp), 0u);
}

TEST(LavaMD, HigherPrecisionRunsLongerExpChains)
{
    LavaMDWorkload<Precision::Double> wd(0.3);
    LavaMDWorkload<Precision::Half> wh(0.3);
    fp::FpContext cd, ch;
    runOnce(wd, 1, &cd);
    runOnce(wh, 1, &ch);
    // Same exp() call count, but double's polynomial is longer, so
    // its total FMA count must exceed half's.
    EXPECT_EQ(cd.count(OpKind::Exp), ch.count(OpKind::Exp));
    EXPECT_GT(cd.count(OpKind::Fma), ch.count(OpKind::Fma));
}

TEST(Lud, FactorisationReconstructsMatrix)
{
    LudWorkload<Precision::Double> w(0.2);
    w.reset(5);
    // Capture the input matrix before factorisation.
    auto before = w.buffers()[0];
    const std::size_t n = test::matrixSide(before);
    std::vector<double> a(n * n);
    for (std::size_t i = 0; i < n * n; ++i)
        a[i] = fp::fpToDouble(fp::kDouble, before.get(i));
    ExecutionEnv env;
    w.execute(env);
    auto after = w.output();
    // Check A ~= L*U on a few probes.
    for (std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
        for (std::size_t j : {std::size_t{1}, n / 2, n - 1}) {
            double sum = 0.0;
            const std::size_t kmax = std::min(i, j);
            for (std::size_t k = 0; k <= kmax; ++k) {
                const double l =
                    k == i ? 1.0
                           : fp::fpToDouble(fp::kDouble,
                                            after.get(i * n + k));
                const double u = fp::fpToDouble(fp::kDouble,
                                                after.get(k * n + j));
                sum += l * u;
            }
            EXPECT_NEAR(sum, a[i * n + j], 1e-9);
        }
    }
}

TEST(Lud, LowerPrecisionStillConditioned)
{
    // Diagonal dominance keeps half-precision LUD finite and roughly
    // correct relative to a double factorisation.
    LudWorkload<Precision::Half> wh(0.2);
    LudWorkload<Precision::Double> wd(0.2);
    const auto bh = runOnce(wh, 5);
    const auto bd = runOnce(wd, 5);
    ASSERT_EQ(bh.size(), bd.size());
    double max_rel = 0.0;
    for (std::size_t i = 0; i < bh.size(); ++i) {
        const double h = fp::fpToDouble(fp::kHalf, bh[i]);
        const double d = fp::fpToDouble(fp::kDouble, bd[i]);
        if (std::abs(d) > 0.5)
            max_rel = std::max(max_rel, std::abs((h - d) / d));
    }
    EXPECT_LT(max_rel, 0.05);
}

TEST(Micro, OpMixIsPure)
{
    for (auto [name, kind] :
         {std::pair{"micro-add", OpKind::Add},
          std::pair{"micro-mul", OpKind::Mul},
          std::pair{"micro-fma", OpKind::Fma}}) {
        auto w = makeWorkload(name, Precision::Half, 0.2);
        fp::FpContext ctx;
        runOnce(*w, 1, &ctx);
        EXPECT_EQ(ctx.totalOps(), ctx.count(kind)) << name;
        EXPECT_GT(ctx.count(kind), 0u) << name;
    }
}

TEST(Micro, ChainStaysInHalfRange)
{
    MicroWorkload<Precision::Half> w(MicroOp::Mul, 1.0);
    const auto bits = runOnce(w, 3);
    for (std::uint64_t b : bits) {
        const double v = fp::fpToDouble(fp::kHalf, b);
        EXPECT_GT(v, 1.0);
        EXPECT_LT(v, 64.0);
    }
}

TEST(Micro, PrecisionsAgreeApproximately)
{
    // Single tracks double closely; half drifts visibly because the
    // fixed-point recurrence amplifies per-step rounding by 1/(1-m)
    // (the "accuracy loss of reduced precision" the paper bounds at
    // a few percent for its workloads, and more for long chains).
    MicroWorkload<Precision::Double> wd(MicroOp::Fma, 0.5);
    MicroWorkload<Precision::Single> ws(MicroOp::Fma, 0.5);
    MicroWorkload<Precision::Half> wh(MicroOp::Fma, 0.5);
    const auto bd = runOnce(wd, 9);
    const auto bs = runOnce(ws, 9);
    const auto bh = runOnce(wh, 9);
    for (std::size_t i = 0; i < bd.size(); ++i) {
        const double d = fp::fpToDouble(fp::kDouble, bd[i]);
        const double s = fp::fpToDouble(fp::kSingle, bs[i]);
        const double h = fp::fpToDouble(fp::kHalf, bh[i]);
        EXPECT_NEAR(s / d, 1.0, 1e-2);
        EXPECT_NEAR(h / d, 1.0, 0.5);
    }
}

TEST(Hotspot, AddDominatedMixAndRelaxation)
{
    // The stencil's mix is ADD/SUB-dominated (the extension
    // prediction: its GPU FIT trend should follow Micro-ADD).
    auto w = makeWorkload("hotspot", Precision::Single, 0.5);
    fp::FpContext ctx;
    const auto bits = runOnce(*w, 3, &ctx);
    EXPECT_GT(ctx.count(OpKind::Add) + ctx.count(OpKind::Sub),
              2 * ctx.count(OpKind::Mul));
    EXPECT_EQ(ctx.count(OpKind::Fma), 0u);
    // Relaxation keeps temperatures near the ambient band.
    for (std::uint64_t b : bits) {
        const double v = fp::fpToDouble(fp::kSingle, b);
        EXPECT_GT(v, 0.3);
        EXPECT_LT(v, 1.2);
    }
}

TEST(Registry, UnknownNameDies)
{
    EXPECT_EXIT(
        { (void)makeWorkload("nope", Precision::Double); },
        ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(Registry, ScaleShrinksProblem)
{
    MxMWorkload<Precision::Single> big(1.0), small(0.1);
    EXPECT_GT(big.output().count, small.output().count);
}

} // namespace
} // namespace mparch::workloads

namespace mparch::workloads {
namespace {

TEST(MxMMixed, MatchesTensorCoreSemantics)
{
    // Same seed: the mixed GEMM's output equals computing with half
    // inputs widened to single and accumulated in single on the host.
    auto w = makeWorkload("mxm-mixed", fp::Precision::Single, 0.1);
    w->reset(11);
    auto views = w->buffers();
    const auto &a = views[0];
    const auto &b = views[1];
    ASSERT_NE(dynamic_cast<MxMMixedWorkload *>(w.get()), nullptr);
    const std::size_t n = test::matrixSide(a);
    std::vector<float> ha(n * n), hb(n * n);
    for (std::size_t i = 0; i < n * n; ++i) {
        ha[i] = static_cast<float>(
            fp::fpToDouble(fp::kHalf, a.get(i)));
        hb[i] = static_cast<float>(
            fp::fpToDouble(fp::kHalf, b.get(i)));
    }
    ExecutionEnv env;
    w->execute(env);
    const auto out = w->output();
    EXPECT_EQ(out.precision, fp::Precision::Single);
    for (std::size_t probe : {std::size_t{0}, n * n / 2,
                              n * n - 1}) {
        const std::size_t i = probe / n, j = probe % n;
        float acc = 0.0f;
        for (std::size_t k = 0; k < n; ++k)
            acc = std::fmaf(ha[i * n + k], hb[k * n + j], acc);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(acc),
                  static_cast<std::uint32_t>(out.get(probe)))
            << probe;
    }
}

TEST(MxMMixed, DeterministicAndCountsConversions)
{
    auto w = makeWorkload("mxm-mixed", fp::Precision::Single, 0.1);
    fp::FpContext ctx;
    w->reset(3);
    ExecutionEnv env;
    {
        fp::FpEnvGuard guard(ctx);
        w->execute(env);
    }
    const std::size_t n = test::matrixSide(w->output());
    // Two widening conversions and one FMA per inner-loop step.
    EXPECT_EQ(ctx.count(fp::OpKind::Fma), n * n * n);
    EXPECT_EQ(ctx.count(fp::OpKind::Convert), 2 * n * n * n);
}

} // namespace
} // namespace mparch::workloads

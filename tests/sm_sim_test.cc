/**
 * @file
 * Tests for the SM warp-scheduler simulator: cycle counts against
 * closed-form expectations, occupancy behaviour, and the
 * control-state injection campaign.
 */

#include <gtest/gtest.h>

#include "arch/gpu/params.hh"
#include "arch/gpu/sm_sim.hh"

namespace mparch::gpu {
namespace {

using fp::Precision;

SmConfig
config(Precision p, int warps = 8)
{
    SmConfig c;
    c.precision = p;
    c.warps = warps;
    return c;
}

TEST(SmSim, SingleWarpDependentChainIsLatencyBound)
{
    // One warp, RAW chain: cycles ~ instructions x latency.
    WarpProgram prog;
    prog.instructions = 100;
    for (auto p : fp::paperPrecisions) {
        const SmStats s = simulateSm(config(p, 1), prog);
        const double latency =
            opLatencyCycles(p) * packFactor(p);
        EXPECT_NEAR(static_cast<double>(s.cycles),
                    100.0 * latency, latency + 2)
            << fp::precisionName(p);
    }
}

TEST(SmSim, EnoughWarpsHideLatency)
{
    // 8 dependent-chain warps at latency 8 keep the issue slot
    // saturated: ~1 instruction per cycle overall.
    WarpProgram prog;
    prog.instructions = 256;
    const SmStats s =
        simulateSm(config(Precision::Double, 8), prog);
    EXPECT_GT(s.issueUtilization, 0.95);
    EXPECT_NEAR(static_cast<double>(s.cycles), 8.0 * 256.0,
                8.0 * 256.0 * 0.05);
    // In-flight ops approach the warp count.
    EXPECT_GT(s.avgInFlight, 6.0);
}

TEST(SmSim, TooFewWarpsStallTheScheduler)
{
    WarpProgram prog;
    prog.instructions = 256;
    const SmStats few =
        simulateSm(config(Precision::Double, 2), prog);
    const SmStats many =
        simulateSm(config(Precision::Double, 8), prog);
    EXPECT_LT(few.issueUtilization, 0.3);
    EXPECT_GT(many.issueUtilization, few.issueUtilization);
}

TEST(SmSim, HalfPairedLatencyMatchesTimingModel)
{
    // The closed-form micro timing model (gpuTimeSeconds) assumes
    // 8 : 4 : 6-per-pair latency ratios; the simulator must agree.
    WarpProgram prog;
    prog.instructions = 512;
    const auto cycles = [&](Precision p) {
        return static_cast<double>(
            simulateSm(config(p, 1), prog).cycles);
    };
    EXPECT_NEAR(cycles(Precision::Double) /
                    cycles(Precision::Single),
                2.0, 0.05);
    // Half: 512 instructions are 1024 packed ops; per *op* the chain
    // costs 3 cycles, per instruction 6.
    EXPECT_NEAR(cycles(Precision::Half) / cycles(Precision::Single),
                1.5, 0.05);
}

TEST(SmSim, ControlAvfAccountingAndDeterminism)
{
    WarpProgram prog;
    prog.instructions = 128;
    const auto r1 = measureControlAvf(
        config(Precision::Single), prog, 500, 11);
    const auto r2 = measureControlAvf(
        config(Precision::Single), prog, 500, 11);
    EXPECT_EQ(r1.trials, 500u);
    EXPECT_EQ(r1.masked + r1.sdc + r1.due, r1.trials);
    EXPECT_EQ(r1.due, r2.due);
    EXPECT_EQ(r1.sdc, r2.sdc);
}

TEST(SmSim, ControlFaultsProduceBothDueAndSdc)
{
    WarpProgram prog;
    prog.instructions = 128;
    const auto r = measureControlAvf(
        config(Precision::Single), prog, 1500, 13);
    // High counter bits -> runaway warps -> hangs; low bits -> a few
    // instructions more/fewer -> SDC; many flips land on dead state.
    EXPECT_GT(r.avfDue(), 0.05);
    EXPECT_GT(r.avfSdc(), 0.05);
    EXPECT_GT(r.masked, 0u);
    EXPECT_TRUE(r.due95().contains(r.avfDue()));
}

TEST(SmSim, DuePropensitySimilarAcrossPrecisions)
{
    // The paper: DUE rates vary little with the data type (control
    // state is precision-independent); the simulator must agree
    // within campaign noise.
    WarpProgram prog;
    prog.instructions = 128;
    const double d = measureControlAvf(
                         config(Precision::Double), prog, 1500, 17)
                         .avfDue();
    const double h = measureControlAvf(
                         config(Precision::Half), prog, 1500, 17)
                         .avfDue();
    EXPECT_NEAR(d / h, 1.0, 0.35);
}

} // namespace
} // namespace mparch::gpu

/**
 * @file
 * Tests for the three architecture models. Each test pins one of the
 * paper's qualitative findings (the "shape targets" of DESIGN.md);
 * campaign sizes are kept small, so assertions use generous margins.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "arch/fpga/fpga.hh"
#include "arch/fpga/opcost.hh"
#include "arch/gpu/datapath.hh"
#include "arch/gpu/gpu.hh"
#include "arch/gpu/regfile.hh"
#include "arch/phi/compiler_model.hh"
#include "arch/phi/phi.hh"
#include "nn/nn_workloads.hh"
#include "workloads/mxm.hh"

namespace mparch {
namespace {

using fp::OpKind;
using fp::Precision;
using workloads::MicroOp;

// ---------------------------------------------------------------
// FPGA
// ---------------------------------------------------------------

TEST(FpgaOpCost, AreaGrowsWithPrecision)
{
    for (auto kind : {OpKind::Add, OpKind::Mul, OpKind::Fma,
                      OpKind::Div}) {
        const auto h = fpga::operatorCost(kind, fp::kHalf);
        const auto s = fpga::operatorCost(kind, fp::kSingle);
        const auto d = fpga::operatorCost(kind, fp::kDouble);
        EXPECT_LT(h.luts, s.luts);
        EXPECT_LT(s.luts, d.luts);
        EXPECT_LE(h.dsps, s.dsps);
        EXPECT_LE(s.dsps, d.dsps);
    }
}

TEST(FpgaOpCost, MultiplierDspTiling)
{
    // 11/24/53-bit significands tile onto 1 / 2 / 12 DSP slices.
    EXPECT_DOUBLE_EQ(fpga::operatorCost(OpKind::Mul, fp::kHalf).dsps,
                     1.0);
    EXPECT_DOUBLE_EQ(
        fpga::operatorCost(OpKind::Mul, fp::kSingle).dsps, 2.0);
    EXPECT_GE(fpga::operatorCost(OpKind::Mul, fp::kDouble).dsps, 8.0);
}

TEST(FpgaSynthesis, AreaRatiosMatchFigure2)
{
    // Paper Figure 2: MxM loses ~45% of its area from double to
    // single and ~36% more from single to half.
    auto make = [](Precision p) {
        auto w = workloads::makeWorkload("mxm", p, 0.15);
        const fault::GoldenRun golden(*w, 99);
        return fpga::synthesize(*w, golden);
    };
    const auto d = make(Precision::Double);
    const auto s = make(Precision::Single);
    const auto h = make(Precision::Half);
    const double drop_ds = 1.0 - s.luts / d.luts;
    const double drop_sh = 1.0 - h.luts / s.luts;
    EXPECT_NEAR(drop_ds, 0.45, 0.12);
    EXPECT_NEAR(drop_sh, 0.36, 0.12);
    EXPECT_GT(d.configBits, s.configBits);
    EXPECT_GT(s.configBits, h.configBits);
}

TEST(FpgaSynthesis, MnistUsesMoreResourcesThanMxm)
{
    // Paper Figure 2: the CNN occupies more fabric than the 128x128
    // MxM at every precision.
    auto report = [](const char *name, Precision p) {
        auto w = nn::makeAnyWorkload(name, p, 0.5);
        const fault::GoldenRun golden(*w, 99);
        return fpga::synthesize(*w, golden);
    };
    for (auto p : fp::allPrecisions) {
        EXPECT_GT(report("mnist", p).luts, report("mxm", p).luts);
    }
}

TEST(FpgaEvaluation, FitDecreasesWithPrecisionAndNoDue)
{
    const arch::DeviceOptions opt{150, 100, fpga::kDefaultSeed, {}};
    double prev = 1e300;
    for (auto p : fp::allPrecisions) {  // double, single, half
        auto w = workloads::makeWorkload("mxm", p, 0.15);
        const auto eval = fpga::evaluateFpga(*w, opt);
        EXPECT_LT(eval.fitSdc(), prev);
        EXPECT_DOUBLE_EQ(eval.fitDue(), 0.0);  // paper: no FPGA DUEs
        EXPECT_GT(eval.mebf, 0.0);
        prev = eval.fitSdc();
    }
}

TEST(FpgaEvaluation, MebfImprovesWithReducedPrecision)
{
    const arch::DeviceOptions opt{150, 100, fpga::kDefaultSeed, {}};
    auto ws = workloads::makeWorkload("mxm", Precision::Single, 0.15);
    auto wh = workloads::makeWorkload("mxm", Precision::Half, 0.15);
    const auto es = fpga::evaluateFpga(*ws, opt);
    const auto eh = fpga::evaluateFpga(*wh, opt);
    // Paper Figure 5: half completes ~33% more executions between
    // failures than single.
    EXPECT_GT(eh.mebf, es.mebf);
}

TEST(FpgaEvaluation, MnistCriticalShareGrowsAsPrecisionShrinks)
{
    const arch::DeviceOptions opt{250, 100, fpga::kDefaultSeed, {}};
    auto wd = nn::makeAnyWorkload("mnist", Precision::Double, 0.5);
    auto wh = nn::makeAnyWorkload("mnist", Precision::Half, 0.5);
    const auto ed = fpga::evaluateFpga(*wd, opt);
    const auto eh = fpga::evaluateFpga(*wh, opt);
    using workloads::SdcSeverity;
    const double crit_d = ed.datapathCampaign.severityFraction(
        SdcSeverity::CriticalChange);
    const double crit_h = eh.datapathCampaign.severityFraction(
        SdcSeverity::CriticalChange);
    // Paper Figure 3: 5% critical at double vs 20% at half.
    EXPECT_GT(crit_h, crit_d);
    EXPECT_LT(crit_d, 0.35);
}

TEST(FpgaTiming, HalfMxmSlowerThanSingle)
{
    // Paper Table 1: MxM takes 2.10s in single but 2.31s in half.
    const arch::DeviceOptions opt{60, 40, fpga::kDefaultSeed, {}};
    auto ws = workloads::makeWorkload("mxm", Precision::Single, 0.15);
    auto wh = workloads::makeWorkload("mxm", Precision::Half, 0.15);
    const double ts = fpga::evaluateFpga(*ws, opt).timeSeconds;
    const double th = fpga::evaluateFpga(*wh, opt).timeSeconds;
    EXPECT_GT(th, ts);
    EXPECT_LT(th / ts, 1.3);
}

// ---------------------------------------------------------------
// Xeon Phi
// ---------------------------------------------------------------

TEST(PhiCompiler, RegisterDeltasMatchReports)
{
    // Paper Section 5: single uses 33% (LavaMD) and 47% (MxM) more
    // vector registers; LUD allocates identically.
    auto regs = [](const char *name, Precision p) {
        auto w = workloads::makeWorkload(name, p, 0.1);
        return phi::compileKernel(w->desc(), p).vectorRegisters;
    };
    const double lava_ratio =
        static_cast<double>(regs("lavamd", Precision::Single)) /
        regs("lavamd", Precision::Double);
    const double mxm_ratio =
        static_cast<double>(regs("mxm", Precision::Single)) /
        regs("mxm", Precision::Double);
    EXPECT_NEAR(lava_ratio, 1.33, 0.15);
    EXPECT_NEAR(mxm_ratio, 1.47, 0.15);
    EXPECT_EQ(regs("lud", Precision::Single),
              regs("lud", Precision::Double));
}

TEST(PhiCompiler, LaneCounts)
{
    auto w = workloads::makeWorkload("mxm", Precision::Single, 0.1);
    EXPECT_EQ(phi::compileKernel(w->desc(), Precision::Single)
                  .simdLanes,
              16);
    EXPECT_EQ(phi::compileKernel(w->desc(), Precision::Double)
                  .simdLanes,
              8);
}

TEST(PhiEvaluation, RejectsHalfPrecision)
{
    for (auto p : {Precision::Half, Precision::Bfloat16}) {
        auto w = workloads::makeWorkload("mxm", p, 0.1);
        EXPECT_DEATH((void)phi::evaluatePhi(*w, {}),
                     "KNC does not implement " +
                         std::string(fp::precisionName(p)));
    }
}

TEST(PhiEvaluation, Figure6Shapes)
{
    const arch::DeviceOptions opt{150, 150, phi::kDefaultSeed, {}};
    auto eval = [&](const char *name, Precision p) {
        auto w = workloads::makeWorkload(name, p, 0.15);
        return phi::evaluatePhi(*w, opt);
    };
    const auto lava_d = eval("lavamd", Precision::Double);
    const auto lava_s = eval("lavamd", Precision::Single);
    const auto mxm_d = eval("mxm", Precision::Double);
    const auto mxm_s = eval("mxm", Precision::Single);
    const auto lud_d = eval("lud", Precision::Double);
    const auto lud_s = eval("lud", Precision::Single);

    // SDC: single above double for LavaMD and MxM; LUD similar.
    EXPECT_GT(lava_s.fitSdc(), lava_d.fitSdc());
    EXPECT_GT(mxm_s.fitSdc(), mxm_d.fitSdc());
    EXPECT_NEAR(lud_s.fitSdc() / lud_d.fitSdc(), 1.0, 0.25);
    // DUE: single above double for all three (16 vs 8 lanes).
    EXPECT_GT(lava_s.fitDue(), lava_d.fitDue());
    EXPECT_GT(mxm_s.fitDue(), mxm_d.fitDue());
    EXPECT_GT(lud_s.fitDue(), lud_d.fitDue());
    // PVF (Figure 7): similar across precisions per code.
    EXPECT_NEAR(lava_s.memoryCampaign.avfSdc(),
                lava_d.memoryCampaign.avfSdc(), 0.15);
    EXPECT_NEAR(mxm_s.memoryCampaign.avfSdc(),
                mxm_d.memoryCampaign.avfSdc(), 0.15);
    // Table 2: single ~35% faster for LavaMD/LUD, slower for MxM.
    EXPECT_LT(lava_s.timeSeconds, 0.8 * lava_d.timeSeconds);
    EXPECT_LT(lud_s.timeSeconds, 0.8 * lud_d.timeSeconds);
    EXPECT_GT(mxm_s.timeSeconds, mxm_d.timeSeconds);
    // Figure 9: MEBF favours single except for MxM.
    EXPECT_GT(lava_s.mebf, lava_d.mebf);
    EXPECT_GT(lud_s.mebf, lud_d.mebf);
    EXPECT_GT(mxm_d.mebf, mxm_s.mebf);
}

// ---------------------------------------------------------------
// GPU
// ---------------------------------------------------------------

TEST(GpuDatapath, PerOpBitOrderings)
{
    // FMA needs the most lane state, ADD the least; double lanes are
    // the widest.
    for (auto p : fp::allPrecisions) {
        const double add = gpu::datapathBitsPerCore(OpKind::Add, p);
        const double mul = gpu::datapathBitsPerCore(OpKind::Mul, p);
        const double fma = gpu::datapathBitsPerCore(OpKind::Fma, p);
        EXPECT_GT(fma, mul);
        EXPECT_GT(mul, add);
    }
    EXPECT_GT(gpu::datapathBitsPerCore(OpKind::Mul, Precision::Double),
              gpu::datapathBitsPerCore(OpKind::Mul,
                                       Precision::Single));
}

TEST(GpuRegfile, Figure12DoubleTwiceSingleAndHalf)
{
    for (auto op : {MicroOp::Add, MicroOp::Mul, MicroOp::Fma}) {
        const double d =
            gpu::measureRegFileAvf(op, Precision::Double, 2000, 5)
                .avfSdc();
        const double s =
            gpu::measureRegFileAvf(op, Precision::Single, 2000, 5)
                .avfSdc();
        const double h =
            gpu::measureRegFileAvf(op, Precision::Half, 2000, 5)
                .avfSdc();
        EXPECT_NEAR(d / s, 2.0, 0.5) << microOpName(op);
        EXPECT_NEAR(h / s, 1.0, 0.35) << microOpName(op);
    }
}

TEST(GpuMicro, Figure10aShapes)
{
    const arch::DeviceOptions opt{250, 100, gpu::kDefaultSeed, {}};
    auto eval = [&](const char *name, Precision p) {
        auto w = workloads::makeWorkload(name, p, 0.15);
        return gpu::evaluateGpu(*w, opt);
    };
    const auto mul_d = eval("micro-mul", Precision::Double);
    const auto mul_s = eval("micro-mul", Precision::Single);
    const auto mul_h = eval("micro-mul", Precision::Half);
    const auto add_d = eval("micro-add", Precision::Double);
    const auto add_s = eval("micro-add", Precision::Single);
    const auto add_h = eval("micro-add", Precision::Half);
    const auto fma_d = eval("micro-fma", Precision::Double);
    const auto fma_h = eval("micro-fma", Precision::Half);

    // MUL: double > single > half.
    EXPECT_GT(mul_d.fitSdc(), mul_s.fitSdc());
    EXPECT_GT(mul_s.fitSdc(), mul_h.fitSdc());
    // ADD: the opposite — single/half above double, similar to each
    // other.
    EXPECT_GT(add_s.fitSdc(), add_d.fitSdc());
    EXPECT_NEAR(add_h.fitSdc() / add_s.fitSdc(), 1.0, 0.35);
    // FMA > MUL > ADD at fixed precision; half benefits most.
    EXPECT_GT(fma_d.fitSdc(), mul_d.fitSdc());
    EXPECT_GT(mul_d.fitSdc(), add_d.fitSdc());
    EXPECT_GT(fma_d.fitSdc(), fma_h.fitSdc());
    // Micro DUE well below app DUE (checked next test), and roughly
    // flat across precisions.
    EXPECT_NEAR(add_h.fitDue() / add_d.fitDue(), 1.0, 0.5);
}

TEST(GpuApps, Figure10bShapes)
{
    const arch::DeviceOptions opt{200, 150, gpu::kDefaultSeed, {}};
    auto eval = [&](const char *name, Precision p) {
        auto w = workloads::makeWorkload(name, p, 0.15);
        return gpu::evaluateGpu(*w, opt);
    };
    const auto mxm_d = eval("mxm", Precision::Double);
    const auto mxm_h = eval("mxm", Precision::Half);
    const auto lava_d = eval("lavamd", Precision::Double);
    const auto lava_h = eval("lavamd", Precision::Half);
    const auto micro = eval("micro-mul", Precision::Double);

    // MxM well above LavaMD (memory-bound exposure).
    EXPECT_GT(mxm_d.fitSdc(), 1.5 * lava_d.fitSdc());
    // Both follow their dominant-op trend: reduced precision lowers
    // SDC FIT.
    EXPECT_GT(mxm_d.fitSdc(), mxm_h.fitSdc());
    EXPECT_GT(lava_d.fitSdc(), lava_h.fitSdc());
    // Apps have much higher DUE rates than micro kernels.
    EXPECT_GT(lava_d.fitDue(), 3.0 * micro.fitDue());
}

TEST(GpuTiming, Table3Ratios)
{
    auto time = [](const char *name, Precision p) {
        auto w = workloads::makeWorkload(name, p, 0.15);
        const fault::GoldenRun golden(*w, 99);
        return gpu::gpuTimeSeconds(*w, golden);
    };
    // Micro: latency ratios 8 : 4 : 3 (paper 6.0 : 3.0 : 2.23).
    const double md = time("micro-fma", Precision::Double);
    const double ms = time("micro-fma", Precision::Single);
    const double mh = time("micro-fma", Precision::Half);
    EXPECT_NEAR(md / ms, 2.0, 0.05);
    EXPECT_NEAR(ms / mh, 4.0 / 3.0, 0.05);
    // MxM: muted gains (paper 2.33 / 1.91 / 1.18 => ~0.82 and ~0.62).
    const double xd = time("mxm", Precision::Double);
    const double xs = time("mxm", Precision::Single);
    const double xh = time("mxm", Precision::Half);
    EXPECT_NEAR(xs / xd, 0.82, 0.1);
    EXPECT_NEAR(xh / xs, 0.62, 0.1);
}

/** The factory's mxm (single) counting its executions; clones
 *  share the count. */
class CountingMxM : public workloads::MxMWorkload<Precision::Single>
{
  public:
    using MxMWorkload::MxMWorkload;

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<CountingMxM>(*this);
    }

    void
    execute(workloads::ExecutionEnv &env) override
    {
        ++*executions;
        MxMWorkload::execute(env);
    }

    std::shared_ptr<int> executions = std::make_shared<int>(0);
};

TEST(GpuEvaluation, SharesTheCampaignsGoldenRun)
{
    // Stamped as the factory stamps mxm, the workload's model op
    // counts come from the run its campaigns classify against: one
    // golden execution plus one per trial.
    const double scale = 0.1;
    auto counting = std::make_unique<CountingMxM>(scale);
    const auto executions = counting->executions;
    const auto w = workloads::stamped(std::move(counting), scale);
    const arch::DeviceOptions opt{30, 20, gpu::kDefaultSeed, {}};
    fault::clearGoldenRunCache();
    (void)gpu::evaluateGpu(*w, opt);
    fault::clearGoldenRunCache();
    EXPECT_EQ(*executions, 30 + 20 + 1);
}

TEST(GpuYolite, HalfSlowerAndDueHigh)
{
    const arch::DeviceOptions opt{150, 100, gpu::kDefaultSeed, {}};
    auto es = [&](Precision p) {
        auto w = nn::makeAnyWorkload("yolite", p, 1.0);
        return gpu::evaluateGpu(*w, opt);
    };
    const auto d = es(Precision::Double);
    const auto s = es(Precision::Single);
    const auto h = es(Precision::Half);
    // Table 3: YOLO half is slower than single (conversion overhead).
    EXPECT_GT(h.timeSeconds, s.timeSeconds);
    EXPECT_GT(d.timeSeconds, s.timeSeconds);
    // Detection CNN: DUE on par with or above SDC (paper Fig. 10c).
    EXPECT_GT(d.fitDue(), 0.5 * d.fitSdc());
}

TEST(GpuMebf, Figure13MicroAndApps)
{
    const arch::DeviceOptions opt{150, 100, gpu::kDefaultSeed, {}};
    auto eval = [&](const char *name, Precision p) {
        auto w = workloads::makeWorkload(name, p, 0.15);
        return gpu::evaluateGpu(*w, opt);
    };
    for (const char *name : {"micro-mul", "lavamd", "mxm"}) {
        const double d = eval(name, Precision::Double).mebf;
        const double s = eval(name, Precision::Single).mebf;
        const double h = eval(name, Precision::Half).mebf;
        EXPECT_GT(s, d) << name;
        EXPECT_GT(h, s) << name;
    }
}

} // namespace
} // namespace mparch

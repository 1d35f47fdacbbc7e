/**
 * @file
 * Registry entries for the ablation studies: each one removes or
 * replaces a DESIGN.md modelling decision and measures what the
 * paper-facing conclusions owe to it.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "arch/fpga/fpga.hh"
#include "arch/gpu/gpu.hh"
#include "arch/gpu/params.hh"
#include "arch/gpu/sm_sim.hh"
#include "arch/phi/params.hh"
#include "arch/phi/phi.hh"
#include "arch/phi/vpu_sim.hh"
#include "beam/virtual_beam.hh"
#include "common/rng.hh"
#include "fault/campaign.hh"
#include "metrics/metrics.hh"
#include "nn/nn_workloads.hh"
#include "report/experiments.hh"

namespace mparch::report {

namespace {

using fp::Precision;

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

Experiment
ablationInjectionSites()
{
    Experiment e;
    e.id = "ablation_injection_sites";
    e.paperRef = "-";
    e.kind = ExperimentKind::Ablation;
    e.title = "Ablation: operand-only vs full-datapath injection";
    e.shapeTarget = "operand-only over-estimates AVF and "
                    "criticality; gap widens with precision";
    e.defaultTrials = 600;
    e.defaultScale = 0.2;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &table = doc.addTable(
            "main", {"precision", "sites", "avf-sdc", "remain@0.1%",
                     "remain@1%"});
        for (auto p : fp::paperPrecisions) {
            for (const bool operand_only : {true, false}) {
                auto w = nn::makeAnyWorkload("mxm", p, scale);
                fault::CampaignConfig config;
                config.trials = self.trialsFor(ctx);
                config.operandStagesOnly = operand_only;
                const auto r = runReportCampaign(
                    *w, fault::CampaignKind::Datapath, config, ctx);
                table.row()
                    .cell(precisionLabel(p))
                    .cell(operand_only ? "operands-only"
                                       : "full-datapath")
                    .cell({r.avfSdc(), 3})
                    .cell({r.survivingFraction(1e-3), 3})
                    .cell({r.survivingFraction(1e-2), 3});
            }
        }
        return doc;
    };
    e.checks = {
        exceeds("operand-only-overestimates-double",
                "operand-only injection over-estimates double's "
                "AVF (every flipped bit is architecturally "
                "meaningful)",
                sel("avf-sdc", {{"precision", "double"},
                                {"sites", "operands-only"}}),
                sel("avf-sdc", {{"precision", "double"},
                                {"sites", "full-datapath"}}),
                1.10),
        custom("gap-closes-at-half",
               "the operand-only/full-datapath AVF gap shrinks as "
               "precision does (narrow formats carry less sub-ulp "
               "datapath state)",
               [](const ResultDoc &doc) {
                   CheckOutcome out;
                   auto scalar = [&](const char *p,
                                     const char *sites) {
                       std::string err;
                       const auto v = extract(
                           doc,
                           sel("avf-sdc",
                               {{"precision", p}, {"sites", sites}}),
                           &err);
                       return v.size() == 1 ? v[0] : 0.0;
                   };
                   const double gap_double =
                       scalar("double", "operands-only") /
                       scalar("double", "full-datapath");
                   const double gap_half =
                       scalar("half", "operands-only") /
                       scalar("half", "full-datapath");
                   out.pass = gap_double > gap_half;
                   out.observed = "over-estimation factor double=" +
                                  num(gap_double) +
                                  " half=" + num(gap_half);
                   return out;
               }),
    };
    return e;
}

Experiment
ablationBeamMc()
{
    Experiment e;
    e.id = "ablation_beam_mc";
    e.paperRef = "-";
    e.kind = ExperimentKind::Ablation;
    e.title = "Ablation: Monte Carlo beam vs analytic FIT";
    e.shapeTarget = "MC FIT confidence interval must cover the "
                    "analytic estimate";
    e.defaultTrials = 400;
    e.defaultScale = 0.15;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &table = doc.addTable(
            "main",
            {"precision", "analytic-fit", "mc-fit", "mc-ci95-lo",
             "mc-ci95-hi", "mc-faults", "covered"});
        for (auto p : fp::paperPrecisions) {
            auto w = workloads::makeWorkload("micro-mul", p, scale);
            const arch::DeviceOptions opt{
                self.trialsFor(ctx), self.trialsFor(ctx) / 2,
                gpu::kDefaultSeed, reportSupervisor(ctx)};
            const auto eval = gpu::evaluateGpu(*w, opt);

            // Strip the control entry (its DUEs are analytic-only)
            // and drive the SDC entries through real executions.
            beam::ResourceInventory inv = eval.inventory;
            inv.entries.resize(2);
            const double analytic = inv.fitSdc();

            // Each neutron is trial 0 of a one-trial campaign seeded
            // from the beam's stream, classified against the golden
            // run evaluateGpu already cached.
            const auto golden = fault::goldenRunFor(*w, kInputSeed);
            Rng rng(97);
            const double fluence = 400.0 / inv.rawRate();
            const auto mc = beam::runBeam(
                inv, fluence, rng,
                [&w, &golden](std::size_t entry, Rng &r) {
                    fault::CampaignConfig one;
                    one.trials = 1;
                    one.seed = r.next();
                    const auto kind = entry == 0
                                          ? fault::CampaignKind::Datapath
                                          : fault::CampaignKind::Memory;
                    const fault::OutcomeKind outcome =
                        fault::makeTrialRunner(*w, kind, one,
                                               fp::OpKind::NumKinds, {},
                                               golden)
                            ->runTrial(0)
                            .outcome;
                    if (outcome == fault::OutcomeKind::Due)
                        return beam::BeamOutcome::Due;
                    if (outcome == fault::OutcomeKind::Sdc)
                        return beam::BeamOutcome::Sdc;
                    return beam::BeamOutcome::Masked;
                });
            const Interval ci = mc.fitSdc95();
            table.row()
                .cell(precisionLabel(p))
                .cell({analytic, 0})
                .cell({mc.fitSdc(), 0})
                .cell({ci.lo, 0})
                .cell({ci.hi, 0})
                .cell(static_cast<std::int64_t>(mc.faults))
                .cell(ci.contains(analytic) ? "yes" : "NO");
        }
        return doc;
    };
    e.checks = {
        custom("ci-covers-analytic",
               "the Monte Carlo beam's 95% interval covers the "
               "analytic exposure x AVF estimate at every precision",
               [](const ResultDoc &doc) {
                   CheckOutcome out;
                   const auto *table = doc.table("main");
                   out.pass = true;
                   for (std::size_t r = 0; r < table->rowCount();
                        ++r) {
                       const bool yes =
                           table->at(r, "covered")->formatted() ==
                           "yes";
                       out.pass = out.pass && yes;
                       if (!out.observed.empty())
                           out.observed += ", ";
                       out.observed +=
                           table->at(r, "precision")->formatted() +
                           "=" + (yes ? "covered" : "NOT covered");
                   }
                   return out;
               }),
    };
    return e;
}

Experiment
ablationProtection()
{
    Experiment e;
    e.id = "ablation_protection";
    e.paperRef = "-";
    e.kind = ExperimentKind::Ablation;
    e.title = "Ablation: ECC / triplication contribution";
    e.shapeTarget = "unprotected variants must dominate the "
                    "baseline FIT";
    e.defaultTrials = 300;
    e.defaultScale = 0.2;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &phi_table = doc.addTable(
            "Xeon Phi: with vs without MCA/ECC",
            {"benchmark", "precision", "fit-sdc(baseline)",
             "fit-sdc(no ECC)", "ratio"});
        for (const std::string name : {"lavamd", "lud"}) {
            for (auto p :
                 {Precision::Double, Precision::Single}) {
                auto w = workloads::makeWorkload(name, p, scale);
                const arch::DeviceOptions opt{
                    self.trialsFor(ctx), self.trialsFor(ctx),
                    phi::kDefaultSeed, reportSupervisor(ctx)};
                auto eval = phi::evaluatePhi(*w, opt);
                const double base = eval.fitSdc();
                // Without MCA the architectural register file (32 x
                // 512-bit vector registers per core) joins the
                // exposure, propagating with the measured PVF.
                beam::ResourceInventory no_ecc = eval.inventory;
                no_ecc.entries.push_back(
                    {"register-file(unprotected)",
                     beam::BitClass::SramData,
                     static_cast<double>(phi::kCores) *
                         phi::kVectorRegisters * phi::kVpuBits,
                     eval.memoryCampaign.avfSdc(), 0.0});
                phi_table.row()
                    .cell(name)
                    .cell(precisionLabel(p))
                    .cell({base, 0})
                    .cell({no_ecc.fitSdc(), 0})
                    .cell({no_ecc.fitSdc() / base, 1});
            }
        }
        auto &gpu_table = doc.addTable(
            "Titan V: HBM2 triplicated vs raw",
            {"benchmark", "precision", "fit-sdc(triplicated)",
             "fit-sdc(raw HBM2)", "ratio"});
        for (const std::string name : {"mxm", "lavamd"}) {
            for (auto p : fp::paperPrecisions) {
                auto w = workloads::makeWorkload(name, p, scale);
                const arch::DeviceOptions opt{
                    self.trialsFor(ctx), self.trialsFor(ctx) / 2,
                    gpu::kDefaultSeed, reportSupervisor(ctx)};
                auto eval = gpu::evaluateGpu(*w, opt);
                const double base = eval.fitSdc();
                // Without triplication every DRAM-resident copy of
                // the working set is exposed for the whole
                // execution, not just the cache-resident fraction.
                // Model the HBM2 window as 64x the on-chip
                // residency.
                beam::ResourceInventory raw = eval.inventory;
                for (auto &entry : raw.entries) {
                    if (entry.name == "cache-resident-data")
                        entry.bits *= 65.0;
                }
                gpu_table.row()
                    .cell(name)
                    .cell(precisionLabel(p))
                    .cell({base, 0})
                    .cell({raw.fitSdc(), 0})
                    .cell({raw.fitSdc() / base, 1});
            }
        }
        return doc;
    };
    e.checks = {
        allAbove("phi-ecc-dominates",
                 "removing the Phi's MCA/ECC raises its SDC FIT by "
                 "an order of magnitude (17-65x at defaults)",
                 sel("ratio", {}, "Xeon Phi: with vs without "
                                  "MCA/ECC"),
                 10.0),
        allAbove("gpu-triplication-matters-mxm",
                 "un-triplicating HBM2 costs memory-bound MxM "
                 "heavily (2.8-6.5x)",
                 sel("ratio", {{"benchmark", "mxm"}},
                     "Titan V: HBM2 triplicated vs raw"),
                 2.0),
        allBelow("gpu-lavamd-barely-moves",
                 "compute-bound LavaMD barely notices raw HBM2 "
                 "(~1.2x)",
                 sel("ratio", {{"benchmark", "lavamd"}},
                     "Titan V: HBM2 triplicated vs raw"),
                 2.0),
    };
    return e;
}

Experiment
ablationScrubbing()
{
    Experiment e;
    e.id = "ablation_scrubbing";
    e.paperRef = "-";
    e.kind = ExperimentKind::Ablation;
    e.title = "Ablation: FPGA scrubbing interval sweep";
    e.shapeTarget = "error rate ~ raw*avf at short intervals, "
                    "saturates at 1/interval; precision advantage "
                    "shrinks with the interval";
    e.defaultTrials = 300;
    e.defaultScale = 0.3;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        struct Row
        {
            Precision p;
            double rawRate;
            double avf;
        };
        std::vector<Row> rows;
        for (auto p : fp::paperPrecisions) {
            auto w = workloads::makeWorkload("mxm", p, scale);
            const arch::DeviceOptions opt{
                self.trialsFor(ctx), self.trialsFor(ctx) / 2,
                fpga::kDefaultSeed, reportSupervisor(ctx)};
            const auto eval = fpga::evaluateFpga(*w, opt);
            // Scrubbing only concerns the persistent mechanism: the
            // configuration-memory entry's raw upset rate and AVF.
            const beam::ResourceEntry &config =
                eval.inventory.entries.front();
            MPARCH_ASSERT(config.name == "config-memory",
                          "FPGA inventory starts with config memory");
            rows.push_back(
                {p,
                 config.bits * beam::bitSensitivity(eval.inventory.node,
                                                    config.bitClass),
                 config.avfSdc});
        }
        auto &table = doc.addTable(
            "main", {"scrub-interval(a.u.)", "double", "single",
                     "half", "double/half advantage"});
        for (const double interval :
             {1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4}) {
            std::array<double, 3> rate{};
            for (std::size_t i = 0; i < rows.size(); ++i) {
                rate[i] = metrics::scrubbedErrorRate(
                    rows[i].rawRate, rows[i].avf, interval);
            }
            table.row()
                .cell({interval, 10})
                .cell({rate[0], 0})
                .cell({rate[1], 0})
                .cell({rate[2], 0})
                .cell({rate[0] / rate[2], 2});
        }
        doc.notes.push_back(
            "(advantage column: how much more often the double "
            "design fails than the half design; it decays towards "
            "1.0 as the scrub interval grows)");
        return doc;
    };
    e.checks = {
        decreasesAlong("advantage-decays",
                       "the double/half failure-rate advantage "
                       "decays as the scrub interval grows",
                       sel("double/half advantage"), 0.01),
        allAbove("short-interval-advantage",
                 "at short scrub intervals the double design fails "
                 "substantially more often than half (raw x AVF "
                 "regime, ~2.1x)",
                 sel("double/half advantage",
                     {{"scrub-interval(a.u.)", "0.0000000010"}}),
                 1.50),
        allBelow("long-interval-no-advantage",
                 "past ~1 upset per interval the reduced-precision "
                 "advantage vanishes (ratio -> 1)",
                 sel("double/half advantage",
                     {{"scrub-interval(a.u.)", "0.0001000000"}}),
                 1.30),
    };
    return e;
}

Experiment
ablationSmSim()
{
    Experiment e;
    e.id = "ablation_sm_sim";
    e.paperRef = "-";
    e.kind = ExperimentKind::Ablation;
    e.title = "Ablation: SM scheduler simulation";
    e.shapeTarget = "simulated cycles match the latency model; "
                    "control-fault DUE rate ~precision-independent";
    e.defaultTrials = 2500;
    e.defaultScale = 1.0;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        gpu::WarpProgram prog;
        prog.instructions = 256;

        auto &timing = doc.addTable(
            "fault-free schedule",
            {"precision", "warps", "sim-cycles",
             "latency-model-cycles", "issue-util", "avg-inflight"});
        for (auto p : fp::paperPrecisions) {
            for (int warps : {1, 4, 8}) {
                gpu::SmConfig config;
                config.precision = p;
                config.warps = warps;
                const auto s = gpu::simulateSm(config, prog);
                // Closed form: chains are latency-bound per warp
                // until the single issue slot saturates.
                const double instrs =
                    static_cast<double>(prog.instructions);
                const double latency_model = std::max(
                    instrs * gpu::opLatencyCycles(p) *
                        gpu::packFactor(p),
                    instrs * warps);
                timing.row()
                    .cell(precisionLabel(p))
                    .cell(static_cast<std::int64_t>(warps))
                    .cell(static_cast<std::int64_t>(s.cycles))
                    .cell({latency_model, 0})
                    .cell({s.issueUtilization, 3})
                    .cell({s.avgInFlight, 2});
            }
        }

        auto &control = doc.addTable(
            "scheduler-state injection",
            {"precision", "trials", "masked", "sdc(program)",
             "due(hang)", "avf-due", "ci95"});
        for (auto p : fp::paperPrecisions) {
            gpu::SmConfig config;
            config.precision = p;
            const auto r = gpu::measureControlAvf(
                config, prog, self.trialsFor(ctx), 17);
            const auto ci = r.due95();
            char buf[48];
            std::snprintf(buf, sizeof(buf), "[%.3f, %.3f]", ci.lo,
                          ci.hi);
            control.row()
                .cell(precisionLabel(p))
                .cell(static_cast<std::int64_t>(r.trials))
                .cell(static_cast<std::int64_t>(r.masked))
                .cell(static_cast<std::int64_t>(r.sdc))
                .cell(static_cast<std::int64_t>(r.due))
                .cell({r.avfDue(), 3})
                .cell(buf);
        }
        return doc;
    };
    e.checks = {
        custom("sim-matches-latency-model",
               "simulated cycle counts agree with the closed-form "
               "latency/occupancy model to < 0.5% on every "
               "precision/warp point",
               [](const ResultDoc &doc) {
                   CheckOutcome out;
                   const auto *table =
                       doc.table("fault-free schedule");
                   double worst = 0.0;
                   for (std::size_t r = 0; r < table->rowCount();
                        ++r) {
                       bool ok = false;
                       const double a =
                           table->at(r, "sim-cycles")
                               ->asNumber(&ok);
                       const double b =
                           table->at(r, "latency-model-cycles")
                               ->asNumber(&ok);
                       worst = std::max(worst,
                                        std::abs(a / b - 1.0));
                   }
                   out.pass = worst < 0.005;
                   out.observed =
                       "worst relative disagreement " + num(worst);
                   return out;
               }),
        flatWithin("control-due-precision-independent",
                   "the scheduler-state DUE rate is roughly "
                   "precision-independent",
                   sel("avf-due", {}, "scheduler-state injection"),
                   1.25),
    };
    return e;
}

Experiment
ablationVpuSim()
{
    Experiment e;
    e.id = "ablation_vpu_sim";
    e.paperRef = "-";
    e.kind = ExperimentKind::Ablation;
    e.title = "Ablation: KNC VPU pipeline simulation";
    e.shapeTarget = "unroll-2 feeds the pipe where unroll-1 stalls; "
                    "lane-mask width shifts control faults into "
                    "SDCs";
    e.defaultTrials = 2500;
    e.defaultScale = 1.0;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        phi::VpuProgram prog;
        prog.instructions = 256;

        auto &timing = doc.addTable(
            "fault-free schedule (double precision)",
            {"threads", "unroll", "cycles", "issue-util"});
        for (int threads : {1, 2, 4}) {
            for (int unroll : {1, 2, 4}) {
                phi::VpuConfig config;
                config.threads = threads;
                prog.unroll = unroll;
                const auto s = phi::simulateVpu(config, prog);
                timing.row()
                    .cell(static_cast<std::int64_t>(threads))
                    .cell(static_cast<std::int64_t>(unroll))
                    .cell(static_cast<std::int64_t>(s.cycles))
                    .cell({s.issueUtilization, 3});
            }
        }

        auto &control = doc.addTable(
            "control-state injection",
            {"precision", "lane-mask-bits", "masked", "sdc", "due",
             "avf-sdc", "avf-due"});
        prog.unroll = 2;
        for (auto p : {Precision::Double, Precision::Single}) {
            phi::VpuConfig config;
            config.precision = p;
            const auto r = phi::measureVpuControlAvf(
                config, prog, self.trialsFor(ctx), 9);
            control.row()
                .cell(precisionLabel(p))
                .cell(static_cast<std::int64_t>(phi::lanes(p)))
                .cell(static_cast<std::int64_t>(r.masked))
                .cell(static_cast<std::int64_t>(r.sdc))
                .cell(static_cast<std::int64_t>(r.due))
                .cell({r.avfSdc(), 3})
                .cell({r.avfDue(), 3});
        }
        return doc;
    };
    e.checks = {
        exceeds("unroll2-feeds-the-pipe",
                "software-pipelining depth 2 lifts single-thread "
                "issue utilisation over depth 1",
                sel("issue-util",
                    {{"threads", "1"}, {"unroll", "2"}},
                    "fault-free schedule (double precision)"),
                sel("issue-util",
                    {{"threads", "1"}, {"unroll", "1"}},
                    "fault-free schedule (double precision)"),
                1.05),
        allBelow("single-thread-half-rate",
                 "KNC's no-back-to-back-issue rule caps one thread "
                 "at half rate even fully unrolled",
                 sel("issue-util",
                     {{"threads", "1"}, {"unroll", "4"}},
                     "fault-free schedule (double precision)"),
                 0.55),
        exceeds("lane-mask-shifts-hangs-to-sdc",
                "single's wider lane mask gives control faults "
                "more silently-corrupting landing spots than "
                "double's",
                sel("avf-sdc", {{"precision", "single"}},
                    "control-state injection"),
                sel("avf-sdc", {{"precision", "double"}},
                    "control-state injection"),
                1.10),
        exceeds("double-hangs-more",
                "double's control faults hang relatively more "
                "often (fewer mask bits to land in)",
                sel("avf-due", {{"precision", "double"}},
                    "control-state injection"),
                sel("avf-due", {{"precision", "single"}},
                    "control-state injection")),
    };
    return e;
}

Experiment
ablationFaultModels()
{
    Experiment e;
    e.id = "ablation_fault_models";
    e.paperRef = "-";
    e.kind = ExperimentKind::Ablation;
    e.title = "Ablation: fault-model sweep (GEMM memory campaign)";
    e.shapeTarget = "criticality ordering half > single > double "
                    "holds under every bit-level model; "
                    "whole-word randomisation erases it";
    e.defaultTrials = 400;
    e.defaultScale = 0.15;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &table = doc.addTable(
            "main", {"model", "precision", "avf-sdc",
                     "remain@0.1%", "remain@1%"});
        for (auto model :
             {fault::FaultModel::SingleBitFlip,
              fault::FaultModel::DoubleBitFlip,
              fault::FaultModel::RandomByte,
              fault::FaultModel::RandomValue,
              fault::FaultModel::WordBurst}) {
            for (auto p : fp::paperPrecisions) {
                auto w = workloads::makeWorkload("mxm", p, scale);
                fault::CampaignConfig config;
                config.trials = self.trialsFor(ctx);
                config.model = model;
                const auto r = runReportCampaign(
                    *w, fault::CampaignKind::Memory, config, ctx);
                table.row()
                    .cell(fault::faultModelName(model))
                    .cell(precisionLabel(p))
                    .cell({r.avfSdc(), 3})
                    .cell({r.survivingFraction(1e-3), 3})
                    .cell({r.survivingFraction(1e-2), 3});
            }
        }
        return doc;
    };
    for (const char *model :
         {"single-bit-flip", "double-bit-flip", "random-byte",
          "word-burst"}) {
        e.checks.push_back(increasesAlong(
            std::string("ordering-survives-") + model,
            std::string("remaining FIT at 0.1% TRE still orders "
                        "double < single < half under the ") +
                model + " model",
            sel("remain@0.1%", {{"model", model}})));
    }
    e.checks.push_back(allAbove(
        "whole-word-erases-ordering",
        "whole-word randomisation erases the criticality ordering "
        "(remaining fraction ~1.0 at every precision)",
        sel("remain@0.1%", {{"model", "random-value"}}), 0.95));
    return e;
}

} // namespace

void
addAblationExperiments(std::vector<Experiment> &out)
{
    out.push_back(ablationInjectionSites());
    out.push_back(ablationBeamMc());
    out.push_back(ablationProtection());
    out.push_back(ablationScrubbing());
    out.push_back(ablationSmSim());
    out.push_back(ablationVpuSim());
    out.push_back(ablationFaultModels());
}

} // namespace mparch::report

/**
 * @file
 * Registry entries for the paper's FPGA section (Section 4):
 * Table 1 and Figures 2-5 on the Zynq-7000.
 */

#include "arch/fpga/fpga.hh"
#include "arch/fpga/params.hh"
#include "metrics/metrics.hh"
#include "nn/nn_workloads.hh"
#include "report/experiments.hh"

namespace mparch::report {

namespace {

using fp::Precision;
using workloads::SdcSeverity;

Experiment
table1FpgaTime()
{
    Experiment e;
    e.id = "table1_fpga_time";
    e.paperRef = "Table 1";
    e.kind = ExperimentKind::PaperTable;
    e.title = "Table 1: Zynq-7000 execution time [s] (model vs "
              "paper)";
    e.shapeTarget = "time drops double->single; MxM half slightly "
                    "slower than single";
    e.defaultTrials = 0;
    e.defaultScale = 0.3;
    e.paper = {{"mnist/double/time", 0.011},
               {"mnist/single/time", 0.009},
               {"mnist/half/time", 0.009},
               {"mxm/double/time", 2.730},
               {"mxm/single/time", 2.100},
               {"mxm/half/time", 2.310}};
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &table = doc.addTable(
            "main", {"benchmark", "precision", "model[s]",
                     "model(norm to double)", "paper[s]",
                     "paper(norm to double)"});
        for (const std::string name : {"mnist", "mxm"}) {
            double model_double = 0.0;
            const double paper_double =
                self.paperValue(name + "/double/time");
            for (auto p : fp::paperPrecisions) {
                auto w = nn::makeAnyWorkload(name, p, scale);
                const auto golden = fault::goldenRunFor(*w, kInputSeed);
                const auto circuit = fpga::synthesize(*w, *golden);
                const double t = circuit.cycles / fpga::clockHz(p);
                if (p == Precision::Double)
                    model_double = t;
                const double paper_t = self.paperValue(
                    name + "/" + precisionLabel(p) + "/time");
                table.row()
                    .cell(name)
                    .cell(precisionLabel(p))
                    .cell({t, 6})
                    .cell({t / model_double, 3})
                    .cell({paper_t, 3})
                    .cell({paper_t / paper_double, 3});
            }
        }
        return doc;
    };
    e.checks = {
        exceeds("mxm-single-faster",
                "MxM execution time drops from double to single",
                sel("model[s]", {{"benchmark", "mxm"},
                                 {"precision", "double"}}),
                sel("model[s]", {{"benchmark", "mxm"},
                                 {"precision", "single"}})),
        exceeds("mnist-single-faster",
                "MNIST execution time drops from double to single",
                sel("model[s]", {{"benchmark", "mnist"},
                                 {"precision", "double"}}),
                sel("model[s]", {{"benchmark", "mnist"},
                                 {"precision", "single"}})),
        exceeds("mxm-half-slower-than-single",
                "MxM half is slightly slower than single (half "
                "forgoes the DSP cascade)",
                sel("model[s]", {{"benchmark", "mxm"},
                                 {"precision", "half"}}),
                sel("model[s]", {{"benchmark", "mxm"},
                                 {"precision", "single"}})),
    };
    return e;
}

Experiment
fig2FpgaResources()
{
    Experiment e;
    e.id = "fig2_fpga_resources";
    e.paperRef = "Figure 2";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 2: FPGA resource utilisation";
    e.shapeTarget = "MxM area -45% (D->S) then -36% (S->H); MNIST "
                    "-53% then -26%; MNIST > MxM";
    e.defaultTrials = 0;
    e.defaultScale = 0.3;
    e.paper = {{"mxm/area-drop-d-to-s", 0.45},
               {"mxm/area-drop-s-to-h", 0.36},
               {"mnist/area-drop-d-to-s", 0.53},
               {"mnist/area-drop-s-to-h", 0.26}};
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &table = doc.addTable(
            "main", {"benchmark", "precision", "LUTs", "DSPs",
                     "BRAMs", "config-bits", "area-drop-vs-prev"});
        for (const std::string name : {"mxm", "mnist"}) {
            double prev_luts = 0.0;
            for (auto p : fp::paperPrecisions) {
                auto w = nn::makeAnyWorkload(name, p, scale);
                const auto golden = fault::goldenRunFor(*w, kInputSeed);
                const auto c = fpga::synthesize(*w, *golden);
                std::string drop = "-";
                if (prev_luts > 0.0) {
                    char buf[32];
                    std::snprintf(buf, sizeof(buf), "%.0f%%",
                                  100.0 * (1.0 - c.luts / prev_luts));
                    drop = buf;
                }
                prev_luts = c.luts;
                table.row()
                    .cell(name)
                    .cell(precisionLabel(p))
                    .cell({c.luts, 0})
                    .cell({c.dsps, 0})
                    .cell({c.brams, 0})
                    .cell({c.configBits, 0})
                    .cell(drop);
            }
        }
        return doc;
    };
    // Paper drops: MxM -45% then -36%, MNIST -53% then -26% (the
    // model lands at -40/-31 and -41/-32); windows accept both.
    e.checks = {
        ratioWithin("mxm-area-drop-d-to-s",
                    "MxM loses a large fraction of its LUTs from "
                    "double to single (paper: -45%)",
                    sel("LUTs", {{"benchmark", "mxm"},
                                 {"precision", "single"}}),
                    sel("LUTs", {{"benchmark", "mxm"},
                                 {"precision", "double"}}),
                    0.40, 0.80),
        ratioWithin("mxm-area-drop-s-to-h",
                    "MxM loses more area from single to half "
                    "(paper: -36%)",
                    sel("LUTs", {{"benchmark", "mxm"},
                                 {"precision", "half"}}),
                    sel("LUTs", {{"benchmark", "mxm"},
                                 {"precision", "single"}}),
                    0.40, 0.85),
        ratioWithin("mnist-area-drop-d-to-s",
                    "MNIST loses a large fraction of its LUTs from "
                    "double to single (paper: -53%)",
                    sel("LUTs", {{"benchmark", "mnist"},
                                 {"precision", "single"}}),
                    sel("LUTs", {{"benchmark", "mnist"},
                                 {"precision", "double"}}),
                    0.35, 0.80),
        exceeds("mnist-bigger-double",
                "MNIST occupies more fabric than MxM (double)",
                sel("LUTs", {{"benchmark", "mnist"},
                             {"precision", "double"}}),
                sel("LUTs", {{"benchmark", "mxm"},
                             {"precision", "double"}})),
        exceeds("mnist-bigger-half",
                "MNIST occupies more fabric than MxM (half)",
                sel("LUTs", {{"benchmark", "mnist"},
                             {"precision", "half"}}),
                sel("LUTs", {{"benchmark", "mxm"},
                             {"precision", "half"}})),
        decreasesAlong("mxm-dsp-collapse",
                       "MxM's DSP count collapses as precision "
                       "shrinks",
                       sel("DSPs", {{"benchmark", "mxm"}})),
    };
    return e;
}

Experiment
fig3FpgaFit()
{
    Experiment e;
    e.id = "fig3_fpga_fit";
    e.paperRef = "Figure 3";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 3: FPGA FIT of MxM and MNIST (a.u.)";
    e.shapeTarget = "FIT drops with precision; MNIST critical share "
                    "grows 5%->14%->20% as precision shrinks; no "
                    "DUEs";
    e.defaultTrials = 300;
    e.defaultScale = 0.3;
    e.paper = {{"mnist/double/critical-share", 0.05},
               {"mnist/single/critical-share", 0.14},
               {"mnist/half/critical-share", 0.20}};
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        auto &table = doc.addTable(
            "main",
            {"benchmark", "precision", "fit-sdc(a.u.)",
             "fit-due(a.u.)", "critical-frac", "tolerable-frac",
             "paper-critical"});
        for (const std::string name : {"mxm", "mnist"}) {
            const auto result = runStudyFor(
                core::Architecture::Fpga, name, self, ctx);
            for (const auto &row : result.rows) {
                const fault::CampaignResult &dp = row.datapathCampaign;
                const double critical =
                    dp.severityFraction(SdcSeverity::CriticalChange) +
                    dp.severityFraction(SdcSeverity::DetectionChange);
                const double paper_critical =
                    name == "mnist"
                        ? self.paperValue(
                              name + "/" +
                              precisionLabel(row.precision) +
                              "/critical-share")
                        : 1.0;
                table.row()
                    .cell(name)
                    .cell(precisionLabel(row.precision))
                    .cell({row.fitSdc(), 0})
                    .cell({row.fitDue(), 0})
                    .cell({critical, 3})
                    .cell({dp.severityFraction(SdcSeverity::Tolerable), 3})
                    .cell({paper_critical, 2});
            }
        }
        doc.notes.push_back(
            "Known deviation (EXPERIMENTS.md): the paper measures "
            "MNIST's FIT below MxM's; our operator-level model "
            "reproduces the masking direction but not the full "
            "per-gate AVF gap, so MNIST lands above MxM instead.");
        return doc;
    };
    e.checks = {
        decreasesAlong("mxm-fit-drops",
                       "MxM FIT shrinks with precision",
                       sel("fit-sdc(a.u.)", {{"benchmark", "mxm"}})),
        decreasesAlong("mnist-fit-drops",
                       "MNIST FIT shrinks with precision",
                       sel("fit-sdc(a.u.)",
                           {{"benchmark", "mnist"}})),
        allBelow("no-dues",
                 "no DUEs occur on the bare-metal FPGA design",
                 sel("fit-due(a.u.)"), 1e-9),
        shareGrows("mnist-critical-share-grows",
                   "MNIST's critical error share grows as precision "
                   "shrinks (paper: 5% -> 14% -> 20%)",
                   sel("critical-frac", {{"benchmark", "mnist"}})),
    };
    return e;
}

Experiment
fig4FpgaTre()
{
    Experiment e;
    e.id = "fig4_fpga_tre";
    e.paperRef = "Figure 4";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 4: FPGA MxM FIT reduction vs TRE";
    e.shapeTarget = "double drops fastest (~37% of FIT left at 0.1% "
                    "TRE), single less, half nearly flat";
    e.defaultTrials = 400;
    e.defaultScale = 0.3;
    e.paper = {{"mxm/double/remaining-at-0.1%", 0.37}};
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const auto result = runStudyFor(core::Architecture::Fpga,
                                        "mxm", self, ctx);
        const auto *d = result.find(Precision::Double);
        const auto *s = result.find(Precision::Single);
        const auto *h = result.find(Precision::Half);
        auto &curve = doc.addTable(
            "fraction of TRE=0 FIT remaining",
            {"tre", "double", "single", "half"});
        for (const double t : metrics::kTreThresholds) {
            curve.row()
                .cell({t, 4})
                .cell({d->datapathCampaign.survivingFraction(t), 3})
                .cell({s->datapathCampaign.survivingFraction(t), 3})
                .cell({h->datapathCampaign.survivingFraction(t), 3});
        }
        auto &summary = doc.addTable(
            "remaining-at-tre",
            {"precision", "remain@0.1%", "remain@1%"});
        for (const auto *row : {d, s, h}) {
            summary.row()
                .cell(precisionLabel(row->precision))
                .cell({row->datapathCampaign.survivingFraction(1e-3), 3})
                .cell({row->datapathCampaign.survivingFraction(1e-2), 3});
        }
        return doc;
    };
    e.checks = {
        exceeds("single-above-double",
                "single keeps more of its FIT than double at 0.1% "
                "TRE",
                sel("remain@0.1%", {{"precision", "single"}},
                    "remaining-at-tre"),
                sel("remain@0.1%", {{"precision", "double"}},
                    "remaining-at-tre")),
        exceeds("half-above-single",
                "half keeps more of its FIT than single at 0.1% TRE",
                sel("remain@0.1%", {{"precision", "half"}},
                    "remaining-at-tre"),
                sel("remain@0.1%", {{"precision", "single"}},
                    "remaining-at-tre")),
        allBelow("double-collapses",
                 "double's FIT collapses fastest (paper: ~37% left "
                 "at 0.1% TRE)",
                 sel("remain@0.1%", {{"precision", "double"}},
                     "remaining-at-tre"),
                 0.75),
        allAbove("half-nearly-flat",
                 "half's curve stays nearly flat (a flip in a "
                 "narrow format strikes a significant bit)",
                 sel("remain@0.1%", {{"precision", "half"}},
                     "remaining-at-tre"),
                 0.90),
    };
    return e;
}

Experiment
fig5FpgaMebf()
{
    Experiment e;
    e.id = "fig5_fpga_mebf";
    e.paperRef = "Figure 5";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 5: FPGA MEBF (a.u.)";
    e.shapeTarget = "MEBF rises as precision drops; half/single "
                    "gain ~33% (MxM) and ~26% (MNIST)";
    e.defaultTrials = 300;
    e.defaultScale = 0.3;
    e.paper = {{"mxm/half-over-single-gain", 0.33},
               {"mnist/half-over-single-gain", 0.26}};
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        auto &table = doc.addTable(
            "main", {"benchmark", "precision", "mebf(a.u.)",
                     "norm-to-double", "gain-vs-prev"});
        for (const std::string name : {"mxm", "mnist"}) {
            const auto result = runStudyFor(
                core::Architecture::Fpga, name, self, ctx);
            double base = 0.0, prev = 0.0;
            for (const auto &row : result.rows) {
                if (row.precision == Precision::Double)
                    base = row.mebf;
                std::string gain = "-";
                if (prev > 0.0) {
                    char buf[32];
                    std::snprintf(buf, sizeof(buf), "+%.0f%%",
                                  100.0 * (row.mebf / prev - 1.0));
                    gain = buf;
                }
                prev = row.mebf;
                table.row()
                    .cell(name)
                    .cell(precisionLabel(row.precision))
                    .cell({row.mebf, 5})
                    .cell({row.mebf / base, 2})
                    .cell(gain);
            }
        }
        return doc;
    };
    e.checks = {
        increasesAlong("mxm-mebf-rises",
                       "MxM MEBF grows monotonically as precision "
                       "shrinks",
                       sel("mebf(a.u.)", {{"benchmark", "mxm"}})),
        increasesAlong("mnist-mebf-rises",
                       "MNIST MEBF grows monotonically as precision "
                       "shrinks",
                       sel("mebf(a.u.)", {{"benchmark", "mnist"}})),
        ratioWithin("mxm-half-gain",
                    "MxM half completes noticeably more executions "
                    "between errors than single (paper: +33%)",
                    sel("mebf(a.u.)", {{"benchmark", "mxm"},
                                       {"precision", "half"}}),
                    sel("mebf(a.u.)", {{"benchmark", "mxm"},
                                       {"precision", "single"}}),
                    1.05, 1.80),
        ratioWithin("mnist-half-gain",
                    "MNIST half completes noticeably more "
                    "executions between errors than single (paper: "
                    "+26%)",
                    sel("mebf(a.u.)", {{"benchmark", "mnist"},
                                       {"precision", "half"}}),
                    sel("mebf(a.u.)", {{"benchmark", "mnist"},
                                       {"precision", "single"}}),
                    1.05, 1.80),
    };
    return e;
}

} // namespace

void
addFpgaExperiments(std::vector<Experiment> &out)
{
    out.push_back(table1FpgaTime());
    out.push_back(fig2FpgaResources());
    out.push_back(fig3FpgaFit());
    out.push_back(fig4FpgaTre());
    out.push_back(fig5FpgaMebf());
}

} // namespace mparch::report

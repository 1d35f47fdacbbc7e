/**
 * @file
 * Registry entries for the paper's Volta section (Section 6):
 * Table 3 and Figures 10-13 on the Titan V.
 */

#include "arch/gpu/gpu.hh"
#include "arch/gpu/regfile.hh"
#include "metrics/metrics.hh"
#include "nn/nn_workloads.hh"
#include "report/experiments.hh"

namespace mparch::report {

namespace {

using fp::Precision;
using workloads::SdcSeverity;

Experiment
table3GpuTime()
{
    Experiment e;
    e.id = "table3_gpu_time";
    e.paperRef = "Table 3";
    e.kind = ExperimentKind::PaperTable;
    e.title = "Table 3: Titan V execution time [s] (model vs paper)";
    e.shapeTarget = "micro 2x then 4/3x; LavaMD ~2x each step; MxM "
                    "muted; YOLO half slower than single";
    e.defaultTrials = 0;
    e.defaultScale = 0.3;
    e.paper = {{"micro-mul/double/time", 6.001},
               {"micro-mul/single/time", 3.021},
               {"micro-mul/half/time", 2.232},
               {"micro-add/double/time", 5.993},
               {"micro-add/single/time", 3.024},
               {"micro-add/half/time", 2.255},
               {"micro-fma/double/time", 5.998},
               {"micro-fma/single/time", 3.019},
               {"micro-fma/half/time", 2.260},
               {"lavamd/double/time", 1.071},
               {"lavamd/single/time", 0.554},
               {"lavamd/half/time", 0.291},
               {"mxm/double/time", 2.327},
               {"mxm/single/time", 1.909},
               {"mxm/half/time", 1.180},
               {"yolite/double/time", 0.133},
               {"yolite/single/time", 0.079},
               {"yolite/half/time", 0.283}};
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &table = doc.addTable(
            "main", {"benchmark", "precision", "model[s]",
                     "model(norm)", "paper[s]", "paper(norm)"});
        for (const std::string name :
             {"micro-mul", "micro-add", "micro-fma", "lavamd",
              "mxm", "yolite"}) {
            double model_double = 0.0;
            const double paper_double =
                self.paperValue(name + "/double/time");
            for (auto p : fp::paperPrecisions) {
                auto w = nn::makeAnyWorkload(name, p, scale);
                const auto golden = fault::goldenRunFor(*w, kInputSeed);
                const double t = gpu::gpuTimeSeconds(*w, *golden);
                if (p == Precision::Double)
                    model_double = t;
                const double paper_t = self.paperValue(
                    name + "/" + precisionLabel(p) + "/time");
                table.row()
                    .cell(name)
                    .cell(precisionLabel(p))
                    .cell({t, 9})
                    .cell({t / model_double, 3})
                    .cell({paper_t, 3})
                    .cell({paper_t / paper_double, 3});
            }
        }
        return doc;
    };
    e.checks = {
        ratioWithin("micro-single-halves",
                    "Micro-MUL's single build takes half of "
                    "double's time (4- vs 8-cycle latency)",
                    sel("model[s]", {{"benchmark", "micro-mul"},
                                     {"precision", "single"}}),
                    sel("model[s]", {{"benchmark", "micro-mul"},
                                     {"precision", "double"}}),
                    0.45, 0.55),
        ratioWithin("micro-half-three-eighths",
                    "Micro-MUL's half build takes 3/8 of double's "
                    "time (3- vs 8-cycle latency)",
                    sel("model[s]", {{"benchmark", "micro-mul"},
                                     {"precision", "half"}}),
                    sel("model[s]", {{"benchmark", "micro-mul"},
                                     {"precision", "double"}}),
                    0.34, 0.41),
        decreasesAlong("lavamd-halves-each-step",
                       "LavaMD's time falls at every precision step "
                       "(core count, then half2 packing)",
                       sel("model[s]", {{"benchmark", "lavamd"}})),
        ratioWithin("mxm-muted-gain",
                    "MxM's single gain is muted (bandwidth-bound; "
                    "paper ratio 0.820)",
                    sel("model[s]", {{"benchmark", "mxm"},
                                     {"precision", "single"}}),
                    sel("model[s]", {{"benchmark", "mxm"},
                                     {"precision", "double"}}),
                    0.70, 0.92),
        exceeds("yolo-half-slower",
                "the CNN's half build is slower than its single "
                "build (layer-wise half<->float conversion)",
                sel("model[s]", {{"benchmark", "yolite"},
                                 {"precision", "half"}}),
                sel("model[s]", {{"benchmark", "yolite"},
                                 {"precision", "single"}})),
    };
    return e;
}

Experiment
fig10aGpuMicroFit()
{
    Experiment e;
    e.id = "fig10a_gpu_micro_fit";
    e.paperRef = "Figure 10a";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 10a: Volta micro FIT (a.u.)";
    e.shapeTarget = "MUL: D>S>H; ADD: S~H>D; FMA: D~S>H; "
                    "FMA>MUL>ADD";
    e.defaultTrials = 400;
    e.defaultScale = 0.3;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        auto &table = doc.addTable(
            "main", {"micro", "precision", "fit-sdc(a.u.)",
                     "fit-due(a.u.)", "sdc norm-to-double"});
        for (const std::string name :
             {"micro-mul", "micro-add", "micro-fma"}) {
            const auto result = runStudyFor(
                core::Architecture::Gpu, name, self, ctx);
            const double base =
                result.find(Precision::Double)->fitSdc();
            for (const auto &row : result.rows) {
                table.row()
                    .cell(name)
                    .cell(precisionLabel(row.precision))
                    .cell({row.fitSdc(), 0})
                    .cell({row.fitDue(), 0})
                    .cell({row.fitSdc() / base, 2});
            }
        }
        return doc;
    };
    e.checks = {
        decreasesAlong("mul-orders-d-s-h",
                       "Micro-MUL's SDC FIT orders double > single "
                       "> half (wider multiplier state dominates)",
                       sel("fit-sdc(a.u.)",
                           {{"micro", "micro-mul"}})),
        exceeds("add-single-above-double",
                "Micro-ADD's single SDC FIT exceeds double's (more "
                "active FP32 cores dominate the thinner adder)",
                sel("fit-sdc(a.u.)", {{"micro", "micro-add"},
                                      {"precision", "single"}}),
                sel("fit-sdc(a.u.)", {{"micro", "micro-add"},
                                      {"precision", "double"}}),
                1.05),
        exceeds("add-half-above-double",
                "Micro-ADD's half SDC FIT exceeds double's",
                sel("fit-sdc(a.u.)", {{"micro", "micro-add"},
                                      {"precision", "half"}}),
                sel("fit-sdc(a.u.)", {{"micro", "micro-add"},
                                      {"precision", "double"}})),
        exceeds("fma-half-lowest",
                "Micro-FMA's half SDC FIT is clearly the lowest",
                sel("fit-sdc(a.u.)", {{"micro", "micro-fma"},
                                      {"precision", "double"}}),
                sel("fit-sdc(a.u.)", {{"micro", "micro-fma"},
                                      {"precision", "half"}}),
                1.10),
        exceeds("fma-above-mul",
                "at fixed precision FMA's FIT exceeds MUL's "
                "(double)",
                sel("fit-sdc(a.u.)", {{"micro", "micro-fma"},
                                      {"precision", "double"}}),
                sel("fit-sdc(a.u.)", {{"micro", "micro-mul"},
                                      {"precision", "double"}})),
        exceeds("mul-above-add",
                "at fixed precision MUL's FIT exceeds ADD's "
                "(double)",
                sel("fit-sdc(a.u.)", {{"micro", "micro-mul"},
                                      {"precision", "double"}}),
                sel("fit-sdc(a.u.)", {{"micro", "micro-add"},
                                      {"precision", "double"}})),
        flatWithin("micro-due-flat",
                   "micro DUE FIT is roughly flat across ops and "
                   "precisions",
                   sel("fit-due(a.u.)"), 2.0),
    };
    return e;
}

Experiment
fig10bGpuAppFit()
{
    Experiment e;
    e.id = "fig10b_gpu_app_fit";
    e.paperRef = "Figure 10b";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 10b: Volta LavaMD and MxM FIT (a.u.)";
    e.shapeTarget = "MxM >> LavaMD; LavaMD tracks MUL, MxM tracks "
                    "FMA; app DUE ~10x micro DUE";
    e.defaultTrials = 300;
    e.defaultScale = 0.3;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        auto &table = doc.addTable(
            "main", {"benchmark", "precision", "fit-sdc(a.u.)",
                     "fit-due(a.u.)", "sdc norm-to-double"});
        double lavamd_d = 0.0, mxm_d = 0.0;
        for (const std::string name : {"lavamd", "mxm"}) {
            const auto result = runStudyFor(
                core::Architecture::Gpu, name, self, ctx);
            const double base =
                result.find(Precision::Double)->fitSdc();
            (name == "lavamd" ? lavamd_d : mxm_d) = base;
            for (const auto &row : result.rows) {
                table.row()
                    .cell(name)
                    .cell(precisionLabel(row.precision))
                    .cell({row.fitSdc(), 0})
                    .cell({row.fitDue(), 0})
                    .cell({row.fitSdc() / base, 2});
            }
        }
        char note[96];
        std::snprintf(note, sizeof(note),
                      "MxM / LavaMD SDC FIT ratio (double): %.2f",
                      mxm_d / lavamd_d);
        doc.notes.push_back(note);
        return doc;
    };
    e.checks = {
        exceeds("mxm-far-above-lavamd",
                "MxM's SDC FIT sits far above LavaMD's at double "
                "(memory-bound cache exposure)",
                sel("fit-sdc(a.u.)", {{"benchmark", "mxm"},
                                      {"precision", "double"}}),
                sel("fit-sdc(a.u.)", {{"benchmark", "lavamd"},
                                      {"precision", "double"}}),
                1.50),
        decreasesAlong("lavamd-tracks-mul",
                       "LavaMD's precision trend falls like "
                       "Micro-MUL's (MUL-dominated mix)",
                       sel("fit-sdc(a.u.)",
                           {{"benchmark", "lavamd"}})),
        allAbove("app-due-high",
                 "app DUE FIT is roughly an order of magnitude "
                 "above the micro kernels' (~500-700)",
                 sel("fit-due(a.u.)"), 2000.0),
    };
    return e;
}

Experiment
fig10cGpuYoloFit()
{
    Experiment e;
    e.id = "fig10c_gpu_yolo_fit";
    e.paperRef = "Figure 10c";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 10c: Volta YOLite (YOLOv3 stand-in) FIT";
    e.shapeTarget = "DUE high (CNN) and worst for double; paper's "
                    "half-lowest SDC is a documented deviation";
    e.defaultTrials = 400;
    e.defaultScale = 1.0;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const auto result = runStudyFor(core::Architecture::Gpu,
                                        "yolite", self, ctx);
        auto &table = doc.addTable(
            "main", {"precision", "fit-sdc(a.u.)", "fit-due(a.u.)",
                     "due/sdc"});
        for (const auto &row : result.rows) {
            table.row()
                .cell(precisionLabel(row.precision))
                .cell({row.fitSdc(), 0})
                .cell({row.fitDue(), 0})
                .cell({row.fitDue() / row.fitSdc(), 2});
        }
        doc.notes.push_back(
            "Known deviation (EXPERIMENTS.md): the paper measures "
            "half's SDC FIT clearly lowest; in our scaled-down "
            "detector half's per-fault visibility outweighs its "
            "resource reduction, so its SDC FIT lands highest. The "
            "deviation shrinks as --scale grows the network.");
        return doc;
    };
    e.checks = {
        allAbove("due-on-par-with-sdc",
                 "the detection CNN's DUE FIT is on par with or "
                 "above its SDC FIT at every precision (CNNs are "
                 "crash-heavy; arithmetic kernels sit far lower)",
                 sel("due/sdc"), 0.70),
        exceeds("due-double-worst",
                "DUE FIT grows with the precision's occupancy "
                "(double worst)",
                sel("fit-due(a.u.)", {{"precision", "double"}}),
                sel("fit-due(a.u.)", {{"precision", "half"}}),
                1.05),
    };
    return e;
}

/** Shared body for the fig11a/fig11b TRE experiments. */
ResultDoc
runGpuTre(const Experiment &self, const RunContext &ctx,
          const std::vector<std::string> &names,
          const char *series_column)
{
    ResultDoc doc;
    auto &summary = doc.addTable(
        "remaining-at-tre",
        {series_column, "precision", "remain@0.1%"});
    for (const auto &name : names) {
        const auto result =
            runStudyFor(core::Architecture::Gpu, name, self, ctx);
        const auto *d = result.find(Precision::Double);
        const auto *s = result.find(Precision::Single);
        const auto *h = result.find(Precision::Half);
        auto &curve = doc.addTable(
            name + " (fraction of FIT remaining)",
            {"tre", "double", "single", "half"});
        for (const double t : metrics::kTreThresholds) {
            curve.row()
                .cell({t, 4})
                .cell({d->datapathCampaign.survivingFraction(t), 3})
                .cell({s->datapathCampaign.survivingFraction(t), 3})
                .cell({h->datapathCampaign.survivingFraction(t), 3});
        }
        for (const auto *row : {d, s, h}) {
            summary.row()
                .cell(name)
                .cell(precisionLabel(row->precision))
                .cell({row->datapathCampaign.survivingFraction(1e-3), 3});
        }
    }
    return doc;
}

Experiment
fig11aGpuMicroTre()
{
    Experiment e;
    e.id = "fig11a_gpu_micro_tre";
    e.paperRef = "Figure 11a";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 11a: Volta micro FIT reduction vs TRE";
    e.shapeTarget = "double reduces most (<50% left at 0.1% TRE); "
                    "half nearly irreducible for every micro-op";
    e.defaultTrials = 500;
    e.defaultScale = 0.3;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        return runGpuTre(self, ctx,
                         {"micro-mul", "micro-add", "micro-fma"},
                         "micro");
    };
    e.checks = {
        increasesAlong("mul-remaining-orders",
                       "Micro-MUL's remaining FIT at 0.1% TRE "
                       "orders double < single < half",
                       sel("remain@0.1%", {{"micro", "micro-mul"}},
                           "remaining-at-tre")),
        allBelow("double-reduces-most",
                 "every micro-op's double build sheds most of its "
                 "FIT by 0.1% TRE (under 50% remains)",
                 sel("remain@0.1%", {{"precision", "double"}},
                     "remaining-at-tre"),
                 0.50),
        allAbove("half-nearly-irreducible",
                 "at half no micro-op's FIT is meaningfully "
                 "reducible (>85% remains at 0.1% TRE for "
                 "MUL/ADD/FMA alike — aligned-significand flips "
                 "are kept or discarded whole)",
                 sel("remain@0.1%", {{"precision", "half"}},
                     "remaining-at-tre"),
                 0.85),
        allAbove("mul-half-nearly-flat",
                 "Micro-MUL's half curve stays high (~93% left at "
                 "0.1% TRE)",
                 sel("remain@0.1%", {{"micro", "micro-mul"},
                                     {"precision", "half"}},
                     "remaining-at-tre"),
                 0.80),
    };
    return e;
}

Experiment
fig11bGpuAppTre()
{
    Experiment e;
    e.id = "fig11b_gpu_app_tre";
    e.paperRef = "Figure 11b";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 11b: Volta LavaMD/MxM FIT reduction vs TRE";
    e.shapeTarget = "remaining fraction: half > single > double";
    e.defaultTrials = 500;
    e.defaultScale = 0.3;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        return runGpuTre(self, ctx, {"lavamd", "mxm"}, "benchmark");
    };
    e.checks = {
        increasesAlong("lavamd-half-most-critical",
                       "LavaMD's remaining FIT at 0.1% TRE orders "
                       "double < single < half",
                       sel("remain@0.1%", {{"benchmark", "lavamd"}},
                           "remaining-at-tre")),
        increasesAlong("mxm-half-most-critical",
                       "MxM's remaining FIT at 0.1% TRE orders "
                       "double < single < half",
                       sel("remain@0.1%", {{"benchmark", "mxm"}},
                           "remaining-at-tre")),
    };
    return e;
}

Experiment
fig11cGpuYoloCrit()
{
    Experiment e;
    e.id = "fig11c_gpu_yolo_crit";
    e.paperRef = "Figure 11c";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 11c: YOLite SDC criticality split";
    e.shapeTarget = "tolerable majority at double, shrinking with "
                    "precision; critical share larger for "
                    "single/half than double";
    e.defaultTrials = 600;
    e.defaultScale = 1.0;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const auto result = runStudyFor(core::Architecture::Gpu,
                                        "yolite", self, ctx);
        auto &table = doc.addTable(
            "main", {"precision", "tolerable", "detection-change",
                     "classification-change"});
        for (const auto &row : result.rows) {
            const fault::CampaignResult &dp = row.datapathCampaign;
            table.row()
                .cell(precisionLabel(row.precision))
                .cell({dp.severityFraction(SdcSeverity::Tolerable), 3})
                .cell({dp.severityFraction(SdcSeverity::DetectionChange),
                       3})
                .cell({dp.severityFraction(SdcSeverity::CriticalChange),
                       3});
        }
        return doc;
    };
    e.checks = {
        allAbove("tolerable-majority-at-double",
                 "tolerable errors are the clear majority at "
                 "double (~77%); the share shrinks as precision "
                 "drops",
                 sel("tolerable", {{"precision", "double"}}), 0.50),
        decreasesAlong("tolerable-shrinks",
                       "the tolerable share shrinks monotonically "
                       "from double to half",
                       sel("tolerable"), 0.02),
        exceeds("critical-grows-single",
                "the classification-change share is larger for "
                "single than double",
                sel("classification-change",
                    {{"precision", "single"}}),
                sel("classification-change",
                    {{"precision", "double"}})),
        exceeds("critical-grows-half",
                "the classification-change share is larger for "
                "half than double",
                sel("classification-change",
                    {{"precision", "half"}}),
                sel("classification-change",
                    {{"precision", "double"}})),
    };
    return e;
}

Experiment
fig12GpuAvf()
{
    Experiment e;
    e.id = "fig12_gpu_avf";
    e.paperRef = "Figure 12";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 12: Volta micro AVF (register injection)";
    e.shapeTarget = "AVF(double) ~ 2x AVF(single); single ~ half";
    e.defaultTrials = 4000;
    e.defaultScale = 1.0;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const auto trials = self.trialsFor(ctx);
        auto &table = doc.addTable(
            "main", {"micro", "precision", "avf", "ci95-lo",
                     "ci95-hi", "norm-to-single"});
        for (auto op :
             {workloads::MicroOp::Mul, workloads::MicroOp::Add,
              workloads::MicroOp::Fma}) {
            std::vector<gpu::RegFileAvf> avfs;
            double single_avf = 0.0;
            for (auto p : fp::paperPrecisions) {
                avfs.push_back(gpu::measureRegFileAvf(op, p, trials, 5));
                if (p == Precision::Single)
                    single_avf = avfs.back().avfSdc();
            }
            for (std::size_t i = 0; i < avfs.size(); ++i) {
                const Precision p = fp::paperPrecisions[i];
                const auto &r = avfs[i];
                const auto ci = r.avf95();
                table.row()
                    .cell(std::string("micro-") +
                          workloads::microOpName(op))
                    .cell(precisionLabel(p))
                    .cell({r.avfSdc(), 3})
                    .cell({ci.lo, 3})
                    .cell({ci.hi, 3})
                    .cell({r.avfSdc() / single_avf, 2});
            }
        }
        return doc;
    };
    for (const char *op : {"micro-mul", "micro-add", "micro-fma"}) {
        e.checks.push_back(ratioWithin(
            std::string(op) + "-double-twice-single",
            std::string("AVF(double) is about twice AVF(single) "
                        "for ") +
                op + " (a double occupies two 32-bit registers)",
            sel("avf", {{"micro", op}, {"precision", "double"}}),
            sel("avf", {{"micro", op}, {"precision", "single"}}),
            1.70, 2.60));
        e.checks.push_back(ratioWithin(
            std::string(op) + "-single-matches-half",
            std::string("AVF(single) ~ AVF(half) for ") + op +
                " (half2 packs two live halves per register)",
            sel("avf", {{"micro", op}, {"precision", "single"}}),
            sel("avf", {{"micro", op}, {"precision", "half"}}),
            0.85, 1.40));
    }
    return e;
}

Experiment
fig13GpuMebf()
{
    Experiment e;
    e.id = "fig13_gpu_mebf";
    e.paperRef = "Figure 13";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 13: Volta MEBF (a.u.)";
    e.shapeTarget = "MEBF rises with reduced precision; apps gain "
                    "more than micro kernels";
    e.defaultTrials = 300;
    e.defaultScale = 0.3;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        auto &table = doc.addTable(
            "main", {"benchmark", "precision", "mebf(a.u.)",
                     "norm-to-double"});
        for (const std::string name :
             {"micro-mul", "micro-add", "micro-fma", "lavamd",
              "mxm", "yolite"}) {
            // The detector ignores --scale shrinkage: its deviation
            // analysis (EXPERIMENTS.md) is pinned at scale 1.
            RunContext local = ctx;
            if (name == "yolite")
                local.scale = 1.0;
            const auto result = runStudyFor(
                core::Architecture::Gpu, name, self, local);
            const double base =
                result.find(Precision::Double)->mebf;
            for (const auto &row : result.rows) {
                table.row()
                    .cell(name)
                    .cell(precisionLabel(row.precision))
                    .cell({row.mebf, 4})
                    .cell({row.mebf / base, 2});
            }
        }
        doc.notes.push_back(
            "Known deviation (EXPERIMENTS.md): YOLite's half row "
            "inherits the Figure 10c deviation plus the genuine "
            "half slowdown, so it drops where the paper's falls "
            "less.");
        return doc;
    };
    for (const char *name :
         {"micro-mul", "micro-add", "micro-fma", "lavamd", "mxm"}) {
        e.checks.push_back(increasesAlong(
            std::string(name) + "-mebf-rises",
            std::string("MEBF grows monotonically with reduced "
                        "precision for ") +
                name,
            sel("mebf(a.u.)", {{"benchmark", name}})));
    }
    e.checks.push_back(exceeds(
        "apps-gain-more",
        "LavaMD's half MEBF gain far exceeds the micro kernels' "
        "(paper: ~9.8x vs 2.5-3.5x over double)",
        sel("norm-to-double", {{"benchmark", "lavamd"},
                               {"precision", "half"}}),
        sel("norm-to-double", {{"benchmark", "micro-mul"},
                               {"precision", "half"}}),
        1.50));
    return e;
}

} // namespace

void
addGpuExperiments(std::vector<Experiment> &out)
{
    out.push_back(table3GpuTime());
    out.push_back(fig10aGpuMicroFit());
    out.push_back(fig10bGpuAppFit());
    out.push_back(fig10cGpuYoloFit());
    out.push_back(fig11aGpuMicroTre());
    out.push_back(fig11bGpuAppTre());
    out.push_back(fig11cGpuYoloCrit());
    out.push_back(fig12GpuAvf());
    out.push_back(fig13GpuMebf());
}

} // namespace mparch::report

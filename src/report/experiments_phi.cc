/**
 * @file
 * Registry entries for the paper's Xeon Phi section (Section 5):
 * Table 2 and Figures 6-9 on the Knights Corner.
 */

#include <cmath>

#include "arch/phi/phi.hh"
#include "metrics/metrics.hh"
#include "report/experiments.hh"
#include "workloads/workload.hh"

namespace mparch::report {

namespace {

using fp::Precision;

const std::vector<Precision> kPhiPrecisions = {Precision::Double,
                                               Precision::Single};

Experiment
table2PhiTime()
{
    Experiment e;
    e.id = "table2_phi_time";
    e.paperRef = "Table 2";
    e.kind = ExperimentKind::PaperTable;
    e.title = "Table 2: Xeon Phi execution time [s] (model vs "
              "paper)";
    e.shapeTarget = "single ~35% faster for LavaMD/LUD, ~13% slower "
                    "for MxM";
    e.defaultTrials = 0;
    e.defaultScale = 0.3;
    e.paper = {{"lavamd/double/time", 1.307},
               {"lavamd/single/time", 0.801},
               {"mxm/double/time", 10.612},
               {"mxm/single/time", 12.028},
               {"lud/double/time", 1.264},
               {"lud/single/time", 0.818}};
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &table = doc.addTable(
            "main", {"benchmark", "precision", "model[s]",
                     "model single/double", "paper[s]",
                     "paper single/double"});
        for (const std::string name : {"lavamd", "mxm", "lud"}) {
            double model_double = 0.0;
            const double paper_double =
                self.paperValue(name + "/double/time");
            for (auto p : kPhiPrecisions) {
                auto w = workloads::makeWorkload(name, p, scale);
                const auto golden = fault::goldenRunFor(*w, kInputSeed);
                const double t = phi::phiTimeSeconds(*w, *golden);
                if (p == Precision::Double)
                    model_double = t;
                const double paper_t = self.paperValue(
                    name + "/" + precisionLabel(p) + "/time");
                table.row()
                    .cell(name)
                    .cell(precisionLabel(p))
                    .cell({t, 7})
                    .cell({t / model_double, 3})
                    .cell({paper_t, 3})
                    .cell({paper_t / paper_double, 3});
            }
        }
        return doc;
    };
    e.checks = {
        ratioWithin("lavamd-single-speedup",
                    "single runs LavaMD substantially faster than "
                    "double (paper ratio: 0.613)",
                    sel("model[s]", {{"benchmark", "lavamd"},
                                     {"precision", "single"}}),
                    sel("model[s]", {{"benchmark", "lavamd"},
                                     {"precision", "double"}}),
                    0.40, 0.80),
        ratioWithin("lud-single-speedup",
                    "single runs LUD substantially faster than "
                    "double (paper ratio: 0.647)",
                    sel("model[s]", {{"benchmark", "lud"},
                                     {"precision", "single"}}),
                    sel("model[s]", {{"benchmark", "lud"},
                                     {"precision", "double"}}),
                    0.45, 0.85),
        exceeds("mxm-single-slower",
                "single runs MxM *slower* than double (the paper's "
                "prefetch-coverage finding, ratio 1.133)",
                sel("model[s]", {{"benchmark", "mxm"},
                                 {"precision", "single"}}),
                sel("model[s]", {{"benchmark", "mxm"},
                                 {"precision", "double"}})),
    };
    return e;
}

Experiment
fig6PhiFit()
{
    Experiment e;
    e.id = "fig6_phi_fit";
    e.paperRef = "Figure 6";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 6: Xeon Phi SDC and DUE FIT (a.u.)";
    e.shapeTarget = "SDC: single > double for LavaMD/MxM, equal for "
                    "LUD; DUE: single > double everywhere";
    e.defaultTrials = 300;
    e.defaultScale = 0.3;
    e.paper = {{"lavamd/vreg-growth", 0.33},
               {"mxm/vreg-growth", 0.47},
               {"lud/vreg-growth", 0.0}};
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        auto &table = doc.addTable(
            "main",
            {"benchmark", "precision", "vregs", "fit-sdc(a.u.)",
             "fit-due(a.u.)", "sdc single/double",
             "due single/double"});
        for (const std::string name : {"lavamd", "mxm", "lud"}) {
            const auto result = runStudyFor(
                core::Architecture::XeonPhi, name, self, ctx);
            const auto *d = result.find(Precision::Double);
            const auto *s = result.find(Precision::Single);
            for (const auto *row : {d, s}) {
                const auto w = workloads::makeWorkload(
                    name, row->precision, self.scaleFor(ctx));
                const int vregs =
                    phi::compileKernel(w->desc(), row->precision)
                        .vectorRegisters;
                table.row()
                    .cell(name)
                    .cell(precisionLabel(row->precision))
                    .cell(static_cast<std::int64_t>(vregs))
                    .cell({row->fitSdc(), 0})
                    .cell({row->fitDue(), 0})
                    .cell({row == s ? s->fitSdc() / d->fitSdc() : 1.0,
                           2})
                    .cell({row == s ? s->fitDue() / d->fitDue() : 1.0,
                           2});
            }
        }
        return doc;
    };
    e.checks = {
        exceeds("lavamd-sdc-single-higher",
                "single's SDC FIT exceeds double's for LavaMD (33% "
                "more vector registers)",
                sel("fit-sdc(a.u.)", {{"benchmark", "lavamd"},
                                      {"precision", "single"}}),
                sel("fit-sdc(a.u.)", {{"benchmark", "lavamd"},
                                      {"precision", "double"}}),
                1.10),
        exceeds("mxm-sdc-single-higher",
                "single's SDC FIT exceeds double's for MxM (47% "
                "more vector registers)",
                sel("fit-sdc(a.u.)", {{"benchmark", "mxm"},
                                      {"precision", "single"}}),
                sel("fit-sdc(a.u.)", {{"benchmark", "mxm"},
                                      {"precision", "double"}}),
                1.10),
        ratioWithin("lud-sdc-equal",
                    "LUD's SDC FIT is precision-insensitive (same "
                    "register allocation both builds)",
                    sel("fit-sdc(a.u.)", {{"benchmark", "lud"},
                                          {"precision", "single"}}),
                    sel("fit-sdc(a.u.)", {{"benchmark", "lud"},
                                          {"precision", "double"}}),
                    0.85, 1.15),
        exceeds("lavamd-due-single-higher",
                "single's DUE FIT exceeds double's for LavaMD (16 "
                "lanes carry twice the control bits)",
                sel("fit-due(a.u.)", {{"benchmark", "lavamd"},
                                      {"precision", "single"}}),
                sel("fit-due(a.u.)", {{"benchmark", "lavamd"},
                                      {"precision", "double"}}),
                1.10),
        exceeds("mxm-due-single-higher",
                "single's DUE FIT exceeds double's for MxM",
                sel("fit-due(a.u.)", {{"benchmark", "mxm"},
                                      {"precision", "single"}}),
                sel("fit-due(a.u.)", {{"benchmark", "mxm"},
                                      {"precision", "double"}}),
                1.10),
        exceeds("lud-due-single-higher",
                "single's DUE FIT exceeds double's for LUD",
                sel("fit-due(a.u.)", {{"benchmark", "lud"},
                                      {"precision", "single"}}),
                sel("fit-due(a.u.)", {{"benchmark", "lud"},
                                      {"precision", "double"}}),
                1.10),
    };
    return e;
}

Experiment
fig7PhiPvf()
{
    Experiment e;
    e.id = "fig7_phi_pvf";
    e.paperRef = "Figure 7";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 7: Xeon Phi PVF";
    e.shapeTarget = "PVF(single) ~= PVF(double) for every code";
    e.defaultTrials = 500;
    e.defaultScale = 0.3;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        auto &table = doc.addTable(
            "main", {"benchmark", "pvf-double", "pvf-single",
                     "|difference|"});
        for (const std::string name : {"lavamd", "mxm", "lud"}) {
            const auto result = runStudyFor(
                core::Architecture::XeonPhi, name, self, ctx);
            const double pd = result.find(Precision::Double)
                                  ->memoryCampaign.avfSdc();
            const double ps = result.find(Precision::Single)
                                  ->memoryCampaign.avfSdc();
            table.row()
                .cell(name)
                .cell({pd, 3})
                .cell({ps, 3})
                .cell({std::abs(pd - ps), 3});
        }
        return doc;
    };
    e.checks = {
        allBelow("pvf-precision-insensitive",
                 "PVF differs by < 0.05 between single and double "
                 "for every code (precision changes how often "
                 "faults occur, not how they propagate)",
                 sel("|difference|"), 0.05),
        allAbove("lud-pvf-near-one",
                 "LUD's PVF is near 1 (every element feeds the "
                 "decomposition)",
                 sel("pvf-double", {{"benchmark", "lud"}}), 0.90),
    };
    return e;
}

Experiment
fig8PhiTre()
{
    Experiment e;
    e.id = "fig8_phi_tre";
    e.paperRef = "Figure 8";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 8: Xeon Phi FIT reduction vs TRE";
    e.shapeTarget = "double reduces faster for LUD and (slightly) "
                    "MxM; paper's LavaMD inversion is a documented "
                    "deviation";
    e.defaultTrials = 500;
    e.defaultScale = 0.3;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        auto &summary = doc.addTable(
            "remaining-at-tre",
            {"benchmark", "double@0.1%", "single@0.1%"});
        for (const std::string name : {"lavamd", "mxm", "lud"}) {
            const auto result = runStudyFor(
                core::Architecture::XeonPhi, name, self, ctx);
            const auto *d = result.find(Precision::Double);
            const auto *s = result.find(Precision::Single);
            auto &curve = doc.addTable(
                name, {"tre", "double-remaining",
                       "single-remaining"});
            for (const double t : metrics::kTreThresholds) {
                curve.row()
                    .cell({t, 4})
                    .cell({d->datapathCampaign.survivingFraction(t), 3})
                    .cell({s->datapathCampaign.survivingFraction(t), 3});
            }
            summary.row()
                .cell(name)
                .cell({d->datapathCampaign.survivingFraction(1e-3), 3})
                .cell({s->datapathCampaign.survivingFraction(1e-3), 3});
        }
        doc.notes.push_back(
            "Known deviation (EXPERIMENTS.md): the paper's LavaMD "
            "inversion (single reducing faster) needs the KNC's "
            "table-based transcendental unit; our polynomial exp() "
            "attenuates in-chain faults, so double reduces faster "
            "here too.");
        return doc;
    };
    e.checks = {
        exceeds("lud-double-reduces-faster",
                "double's FIT reduces faster than single's for LUD "
                "(less remains at 0.1% TRE)",
                sel("single@0.1%", {{"benchmark", "lud"}},
                    "remaining-at-tre"),
                sel("double@0.1%", {{"benchmark", "lud"}},
                    "remaining-at-tre")),
        exceeds("mxm-double-reduces-faster",
                "double's FIT reduces faster than single's for MxM",
                sel("single@0.1%", {{"benchmark", "mxm"}},
                    "remaining-at-tre"),
                sel("double@0.1%", {{"benchmark", "mxm"}},
                    "remaining-at-tre")),
    };
    return e;
}

Experiment
fig9PhiMebf()
{
    Experiment e;
    e.id = "fig9_phi_mebf";
    e.paperRef = "Figure 9";
    e.kind = ExperimentKind::PaperFigure;
    e.title = "Figure 9: Xeon Phi MEBF (a.u.)";
    e.shapeTarget = "single wins LavaMD and LUD; double wins MxM";
    e.defaultTrials = 300;
    e.defaultScale = 0.3;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        auto &table = doc.addTable(
            "main", {"benchmark", "mebf-double", "mebf-single",
                     "single/double", "winner"});
        for (const std::string name : {"lavamd", "mxm", "lud"}) {
            const auto result = runStudyFor(
                core::Architecture::XeonPhi, name, self, ctx);
            const double md =
                result.find(Precision::Double)->mebf;
            const double ms =
                result.find(Precision::Single)->mebf;
            table.row()
                .cell(name)
                .cell({md, 4})
                .cell({ms, 4})
                .cell({ms / md, 2})
                .cell(ms > md ? "single" : "double");
        }
        return doc;
    };
    e.checks = {
        exceeds("lavamd-single-wins",
                "single's MEBF beats double's for LavaMD (the "
                "speedup outruns the higher FIT)",
                sel("mebf-single", {{"benchmark", "lavamd"}}),
                sel("mebf-double", {{"benchmark", "lavamd"}})),
        exceeds("lud-single-wins",
                "single's MEBF beats double's for LUD",
                sel("mebf-single", {{"benchmark", "lud"}}),
                sel("mebf-double", {{"benchmark", "lud"}})),
        exceeds("mxm-double-wins",
                "double's MEBF beats single's for MxM (single is "
                "both slower and more exposed)",
                sel("mebf-double", {{"benchmark", "mxm"}}),
                sel("mebf-single", {{"benchmark", "mxm"}})),
    };
    return e;
}

} // namespace

void
addPhiExperiments(std::vector<Experiment> &out)
{
    out.push_back(table2PhiTime());
    out.push_back(fig6PhiFit());
    out.push_back(fig7PhiPvf());
    out.push_back(fig8PhiTre());
    out.push_back(fig9PhiMebf());
}

} // namespace mparch::report

/**
 * @file
 * Registry entries for the beyond-the-paper extensions: new formats
 * (bfloat16, tensor-core mixed), mitigation cost/benefit, bit-field
 * anatomy, deviation densities and an out-of-sample prediction.
 */

#include <cmath>

#include "common/histogram.hh"
#include "fault/campaign.hh"
#include "mitigation/abft.hh"
#include "mitigation/replicated.hh"
#include "report/experiments.hh"
#include "workloads/workload.hh"

namespace mparch::report {

namespace {

using fp::Precision;
using workloads::SdcSeverity;

Experiment
extBfloat16()
{
    Experiment e;
    e.id = "ext_bfloat16";
    e.paperRef = "-";
    e.kind = ExperimentKind::Extension;
    e.title = "Extension: bfloat16 reliability projection (GPU)";
    e.shapeTarget = "exposure like half, criticality worse than "
                    "half, single-like range";
    e.defaultTrials = 400;
    e.defaultScale = 0.2;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const std::vector<Precision> precisions = {
            Precision::Double, Precision::Single, Precision::Half,
            Precision::Bfloat16};
        for (const std::string name : {"mxm", "mnist"}) {
            const auto result =
                runStudyFor(core::Architecture::Gpu, name, self,
                            ctx, precisions);
            auto &table = doc.addTable(
                name, {"precision", "fit-sdc(a.u.)", "mebf(a.u.)",
                       "avf-dp", "remain@0.1%", "remain@1%",
                       "critical-frac"});
            for (const auto &row : result.rows) {
                const fault::CampaignResult &dp = row.datapathCampaign;
                const double critical =
                    dp.severityFraction(SdcSeverity::CriticalChange) +
                    dp.severityFraction(SdcSeverity::DetectionChange);
                table.row()
                    .cell(precisionLabel(row.precision))
                    .cell({row.fitSdc(), 0})
                    .cell({row.mebf, 4})
                    .cell({dp.avfSdc(), 3})
                    .cell({dp.survivingFraction(1e-3), 3})
                    .cell({dp.survivingFraction(1e-2), 3})
                    .cell({critical, 3});
            }
        }
        doc.notes.push_back(
            "Note: the micro op chains are near-stationary in "
            "bfloat16 (a 2^-10 increment is below its ulp), so "
            "this extension reports the realistic kernels only.");
        return doc;
    };
    e.checks = {
        exceeds("exposure-below-half",
                "bfloat16's MxM FIT lands below half's (same "
                "storage, smaller multiplier)",
                sel("fit-sdc(a.u.)", {{"precision", "half"}},
                    "mxm"),
                sel("fit-sdc(a.u.)", {{"precision", "bfloat16"}},
                    "mxm")),
        exceeds("mebf-best-of-all",
                "bfloat16's MEBF is the best of all formats on "
                "MxM",
                sel("mebf(a.u.)", {{"precision", "bfloat16"}},
                    "mxm"),
                sel("mebf(a.u.)", {{"precision", "half"}}, "mxm")),
        allAbove("worst-criticality",
                 "bfloat16 has the worst criticality profile of "
                 "any format (~100% of MxM SDC FIT remains at 0.1% "
                 "TRE)",
                 sel("remain@0.1%", {{"precision", "bfloat16"}},
                     "mxm"),
                 0.95),
        exceeds("cnn-exponent-range-helps",
                "on the CNN bfloat16's single-like exponent range "
                "keeps its critical share below binary16's",
                sel("critical-frac", {{"precision", "half"}},
                    "mnist"),
                sel("critical-frac", {{"precision", "bfloat16"}},
                    "mnist")),
    };
    return e;
}

Experiment
extMitigation()
{
    Experiment e;
    e.id = "ext_mitigation";
    e.paperRef = "-";
    e.kind = ExperimentKind::Extension;
    e.title = "Extension: mitigation vs precision (GEMM, CAROL-FI "
              "memory campaign)";
    e.shapeTarget = "TMR kills SDCs at 3x cost; DWC converts them "
                    "to detections at 2x; ABFT corrects at ~1.3x "
                    "but its tolerance loosens at low precision";
    e.defaultTrials = 300;
    e.defaultScale = 0.15;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &table = doc.addTable(
            "main", {"precision", "variant", "ops-overhead",
                     "avf-sdc", "avf-critical(>1%)",
                     "avf-detected"});
        for (auto p : fp::paperPrecisions) {
            // Unprotected baseline op count for the overhead
            // column.
            auto plain = workloads::makeWorkload("mxm", p, scale);
            const double base_ops = static_cast<double>(
                fault::goldenRunFor(*plain, kInputSeed)->ops.totalOps());

            struct Variant
            {
                std::string label;
                workloads::WorkloadPtr w;
            };
            std::vector<Variant> variants;
            variants.push_back(
                {"plain", workloads::makeWorkload("mxm", p, scale)});
            variants.push_back(
                {"dwc",
                 mitigation::makeReplicated(
                     mitigation::Redundancy::Dwc, "mxm", p, scale)});
            variants.push_back(
                {"tmr",
                 mitigation::makeReplicated(
                     mitigation::Redundancy::Tmr, "mxm", p, scale)});
            variants.push_back(
                {"abft", mitigation::makeAbftMxM(p, scale)});

            for (auto &variant : variants) {
                const double ops = static_cast<double>(
                    fault::goldenRunFor(*variant.w, kInputSeed)
                        ->ops.totalOps());
                fault::CampaignConfig config;
                config.trials = self.trialsFor(ctx);
                const auto r = runReportCampaign(
                    *variant.w, fault::CampaignKind::Memory,
                    config, ctx);
                const double critical =
                    r.avfSdc() * r.survivingFraction(0.01);
                table.row()
                    .cell(precisionLabel(p))
                    .cell(variant.label)
                    .cell({ops / base_ops, 2})
                    .cell({r.avfSdc(), 3})
                    .cell({critical, 3})
                    .cell({r.avfDetected(), 3});
            }
        }
        doc.notes.push_back(
            "(avf-critical: probability a fault silently perturbs "
            "the output by more than 1%)");
        return doc;
    };
    e.checks = {
        increasesAlong("unprotected-critical-grows",
                       "the unprotected critical-SDC AVF grows "
                       "from double to half (the criticality "
                       "claim, quantified)",
                       sel("avf-critical(>1%)",
                           {{"variant", "plain"}})),
        allBelow("tmr-kills-sdcs",
                 "TMR removes SDCs outright at every precision",
                 sel("avf-sdc", {{"variant", "tmr"}}), 0.01),
        allBelow("dwc-converts-sdcs",
                 "DWC leaves almost no silent corruptions",
                 sel("avf-sdc", {{"variant", "dwc"}}), 0.05),
        allAbove("dwc-detects",
                 "DWC converts faults into detections instead",
                 sel("avf-detected", {{"variant", "dwc"}}), 0.05),
        allAbove("tmr-costs-3x",
                 "TMR costs ~3x the arithmetic",
                 sel("ops-overhead", {{"variant", "tmr"}}), 2.80),
        allBelow("abft-is-cheap",
                 "ABFT's checksummed GEMM costs far less than "
                 "replication",
                 sel("ops-overhead", {{"variant", "abft"}}), 1.60),
        ratioWithin("abft-cuts-double",
                    "ABFT substantially cuts double's critical AVF "
                    "(its checksum tolerance is tight at double)",
                    sel("avf-critical(>1%)",
                        {{"precision", "double"},
                         {"variant", "abft"}}),
                    sel("avf-critical(>1%)",
                        {{"precision", "double"},
                         {"variant", "plain"}}),
                    0.0, 0.70),
        ratioWithin("abft-barely-dents-half",
                    "ABFT barely dents half's critical AVF (its "
                    "rounding tolerance loosens with precision)",
                    sel("avf-critical(>1%)",
                        {{"precision", "half"},
                         {"variant", "abft"}}),
                    sel("avf-critical(>1%)",
                        {{"precision", "half"},
                         {"variant", "plain"}}),
                    0.60, 1.10),
    };
    return e;
}

Experiment
extBitAnatomy()
{
    Experiment e;
    e.id = "ext_bit_anatomy";
    e.paperRef = "-";
    e.kind = ExperimentKind::Extension;
    e.title = "Extension: vulnerability by IEEE754 bit field";
    e.shapeTarget = "exponent flips always critical; low-mantissa "
                    "flips harmless in double, consequential in "
                    "half";
    e.defaultTrials = 1500;
    e.defaultScale = 0.15;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        using fault::FaultAnatomy;
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &table = doc.addTable(
            "main", {"precision", "field", "flips", "avf-sdc",
                     "critical(>1%) share of SDCs"});
        for (auto p : fp::paperPrecisions) {
            auto w = workloads::makeWorkload("mxm", p, scale);
            fault::CampaignConfig config;
            config.trials = self.trialsFor(ctx);
            config.recordAnatomy = true;
            const auto r = runReportCampaign(
                *w, fault::CampaignKind::Memory, config, ctx);
            for (auto field : {FaultAnatomy::Field::Sign,
                               FaultAnatomy::Field::Exponent,
                               FaultAnatomy::Field::MantissaHigh,
                               FaultAnatomy::Field::MantissaLow}) {
                std::uint64_t flips = 0, sdc = 0, critical = 0;
                for (const auto &a : r.anatomy) {
                    if (a.field != field)
                        continue;
                    ++flips;
                    if (a.outcome == fault::OutcomeKind::Sdc) {
                        ++sdc;
                        critical += a.maxRel > 0.01;
                    }
                }
                table.row()
                    .cell(precisionLabel(p))
                    .cell(fault::bitFieldName(field))
                    .cell(static_cast<std::int64_t>(flips))
                    .cell({flips ? static_cast<double>(sdc) / flips
                                 : 0.0,
                           3})
                    .cell({sdc ? static_cast<double>(critical) / sdc
                               : 0.0,
                           3});
            }
        }
        return doc;
    };
    e.checks = {
        allAbove("exponent-always-critical",
                 "exponent flips produce overwhelmingly critical "
                 "SDCs at every precision",
                 sel("critical(>1%) share of SDCs",
                     {{"field", "exponent"}}),
                 0.90),
        allBelow("double-low-mantissa-harmless",
                 "low-mantissa SDCs never exceed 1% deviation in "
                 "double",
                 sel("critical(>1%) share of SDCs",
                     {{"precision", "double"},
                      {"field", "mantissa-low"}}),
                 0.01),
        allBelow("single-low-mantissa-mostly-harmless",
                 "low-mantissa SDCs exceed 1% deviation rarely in "
                 "single",
                 sel("critical(>1%) share of SDCs",
                     {{"precision", "single"},
                      {"field", "mantissa-low"}}),
                 0.10),
        allAbove("half-low-mantissa-bites",
                 "in half even the low mantissa is consequential "
                 "(all 5 of its bits matter)",
                 sel("critical(>1%) share of SDCs",
                     {{"precision", "half"},
                      {"field", "mantissa-low"}}),
                 0.15),
    };
    return e;
}

Experiment
extHotspotPrediction()
{
    Experiment e;
    e.id = "ext_hotspot_prediction";
    e.paperRef = "-";
    e.kind = ExperimentKind::Extension;
    e.title = "Extension: Hotspot trend prediction";
    e.shapeTarget = "the ADD-dominated stencil's trend is elevated "
                    "like Micro-ADD's (single above double), the "
                    "inverse of LavaMD's MUL-like decay";
    e.defaultTrials = 300;
    e.defaultScale = 0.25;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        struct Trend
        {
            double s = 0.0, h = 0.0;
        };
        const auto trendOf = [&](const std::string &name) {
            const auto result = runStudyFor(
                core::Architecture::Gpu, name, self, ctx);
            Trend t;
            const double base =
                result.find(Precision::Double)->fitSdc();
            t.s = result.find(Precision::Single)->fitSdc() / base;
            t.h = result.find(Precision::Half)->fitSdc() / base;
            return t;
        };
        const auto distance = [](const Trend &a, const Trend &b) {
            return std::abs(a.s - b.s) + std::abs(a.h - b.h);
        };

        const Trend add = trendOf("micro-add");
        const Trend mul = trendOf("micro-mul");
        const Trend hotspot = trendOf("hotspot");
        const Trend lavamd = trendOf("lavamd");

        auto &table = doc.addTable(
            "main", {"code", "single/double", "half/double",
                     "closer-to"});
        const auto emit = [&](const char *name, const Trend &t,
                              bool classify) {
            const char *closer =
                !classify ? "-"
                : distance(t, add) < distance(t, mul)
                    ? "micro-add"
                    : "micro-mul";
            table.row()
                .cell(name)
                .cell({t.s, 2})
                .cell({t.h, 2})
                .cell(closer);
        };
        emit("micro-add", add, false);
        emit("micro-mul", mul, false);
        emit("hotspot", hotspot, true);
        emit("lavamd", lavamd, true);
        doc.notes.push_back(
            "(closer-to: nearest micro trend by L1 distance over "
            "the two ratios; the strict classification is "
            "seed-sensitive because micro-add's own elevation "
            "varies, so the checks test the robust inversion "
            "instead)");
        return doc;
    };
    e.checks = {
        allAbove("hotspot-single-elevated",
                 "Hotspot's single FIT sits above double's — the "
                 "Micro-ADD-like inversion the paper's "
                 "mix-determines-trend logic predicts out of "
                 "sample (LavaMD's MUL-like mix decays instead)",
                 sel("single/double", {{"code", "hotspot"}}), 1.0),
        custom("lavamd-tracks-mul",
               "LavaMD's precision trend classifies as Micro-MUL's "
               "(the paper's in-sample anchor)",
               [](const ResultDoc &doc) {
                   CheckOutcome out;
                   const auto *table = doc.table("main");
                   std::string lavamd;
                   for (std::size_t r = 0; r < table->rowCount();
                        ++r) {
                       if (table->at(r, "code")->formatted() ==
                           "lavamd")
                           lavamd =
                               table->at(r, "closer-to")->formatted();
                   }
                   out.pass = lavamd == "micro-mul";
                   out.observed = "lavamd tracks " + lavamd;
                   return out;
               }),
        exceeds("hotspot-inverts-lavamd",
                "Hotspot's single/double FIT ratio sits above "
                "LavaMD's (ADD-dominated vs MUL-dominated)",
                sel("single/double", {{"code", "hotspot"}}),
                sel("single/double", {{"code", "lavamd"}}),
                1.10),
    };
    return e;
}

Experiment
extTensorcore()
{
    Experiment e;
    e.id = "ext_tensorcore";
    e.paperRef = "-";
    e.kind = ExperimentKind::Extension;
    e.title = "Extension: tensor-core mixed-precision GEMM";
    e.shapeTarget = "mixed (half-in, single-accumulate) "
                    "criticality falls between pure half and pure "
                    "single";
    e.defaultTrials = 500;
    e.defaultScale = 0.15;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        struct Variant
        {
            const char *label;
            workloads::WorkloadPtr w;
        };
        std::vector<Variant> variants;
        variants.push_back(
            {"half", workloads::makeWorkload(
                         "mxm", Precision::Half, scale)});
        variants.push_back(
            {"mixed(h->s)",
             workloads::makeWorkload("mxm-mixed",
                                     Precision::Single, scale)});
        variants.push_back(
            {"single", workloads::makeWorkload(
                           "mxm", Precision::Single, scale)});

        auto &table = doc.addTable(
            "main", {"variant", "storage-bits", "avf-sdc",
                     "remain@0.1%", "remain@1%"});
        for (auto &variant : variants) {
            variant.w->reset(1);
            std::uint64_t bits = 0;
            for (const auto &view : variant.w->buffers())
                bits += view.bits();
            fault::CampaignConfig config;
            config.trials = self.trialsFor(ctx);
            const auto r = runReportCampaign(
                *variant.w, fault::CampaignKind::Memory, config,
                ctx);
            table.row()
                .cell(variant.label)
                .cell(static_cast<std::int64_t>(bits))
                .cell({r.avfSdc(), 3})
                .cell({r.survivingFraction(1e-3), 3})
                .cell({r.survivingFraction(1e-2), 3});
        }
        return doc;
    };
    e.checks = {
        exceeds("mixed-below-half",
                "the mixed contract's criticality tail falls below "
                "pure half's",
                sel("remain@0.1%", {{"variant", "half"}}),
                sel("remain@0.1%", {{"variant", "mixed(h->s)"}}),
                1.05),
        exceeds("mixed-above-single",
                "but stays above pure single's (storage faults "
                "still strike half-precision data)",
                sel("remain@0.1%", {{"variant", "mixed(h->s)"}}),
                sel("remain@0.1%", {{"variant", "single"}}),
                1.05),
        ratioWithin("mixed-storage-two-thirds",
                    "the mixed variant needs ~2/3 of single's "
                    "storage",
                    sel("storage-bits",
                        {{"variant", "mixed(h->s)"}}),
                    sel("storage-bits", {{"variant", "single"}}),
                    0.55, 0.80),
    };
    return e;
}

Experiment
extDeviationHistogram()
{
    Experiment e;
    e.id = "ext_deviation_histogram";
    e.paperRef = "-";
    e.kind = ExperimentKind::Extension;
    e.title = "Extension: SDC deviation histograms (GEMM, "
              "functional-unit faults)";
    e.shapeTarget = "double's mass in the small-deviation decades, "
                    "half's in 1e-2..1e0; exponent spikes "
                    "everywhere";
    e.defaultTrials = 800;
    e.defaultScale = 0.15;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        auto &table = doc.addTable(
            "main", {"precision", "sdcs", "share<1e-6",
                     "share>=1e-2", "share-catastrophic"});
        for (auto p : fp::paperPrecisions) {
            auto w = workloads::makeWorkload("mxm", p, scale);
            fault::CampaignConfig config;
            config.trials = self.trialsFor(ctx);
            const auto r = runReportCampaign(
                *w, fault::CampaignKind::Datapath, config, ctx);

            LogHistogram histogram(-10, 13);  // 1e-10 .. 1e3
            std::uint64_t tiny = 0, large = 0, catastrophic = 0;
            for (const auto &rec : r.corpus) {
                histogram.add(rec.maxRel);
                if (!std::isfinite(rec.maxRel) ||
                    rec.maxRel >= 1e2)
                    ++catastrophic;
                if (rec.maxRel < 1e-6)
                    ++tiny;
                if (rec.maxRel >= 1e-2)
                    ++large;
            }
            const double n =
                std::max<double>(1.0, r.corpus.size());
            table.row()
                .cell(precisionLabel(p))
                .cell(static_cast<std::int64_t>(r.corpus.size()))
                .cell({tiny / n, 3})
                .cell({large / n, 3})
                .cell({catastrophic / n, 3});
            doc.notes.push_back(
                "--- " + precisionLabel(p) + " (" +
                std::to_string(r.sdc) + " SDCs / " +
                std::to_string(r.trials) + " trials) ---\n" +
                histogram.render());
        }
        return doc;
    };
    e.checks = {
        allAbove("double-mass-tiny",
                 "the majority of double's SDC mass lies below "
                 "1e-6 relative deviation (mantissa-tail flips)",
                 sel("share<1e-6", {{"precision", "double"}}),
                 0.50),
        allAbove("half-mass-large",
                 "the majority of half's SDC mass lies at or above "
                 "1e-2 (few mantissa bits to hide in)",
                 sel("share>=1e-2", {{"precision", "half"}}),
                 0.50),
        exceeds("half-far-coarser-than-double",
                "half's large-deviation share dwarfs double's",
                sel("share>=1e-2", {{"precision", "half"}}),
                sel("share>=1e-2", {{"precision", "double"}}),
                2.0),
        allAbove("catastrophic-spike-everywhere",
                 "every precision keeps a catastrophic/non-finite "
                 "spike from exponent strikes",
                 sel("share-catastrophic"), 0.01),
    };
    return e;
}

} // namespace

void
addExtensionExperiments(std::vector<Experiment> &out)
{
    out.push_back(extBfloat16());
    out.push_back(extMitigation());
    out.push_back(extBitAnatomy());
    out.push_back(extHotspotPrediction());
    out.push_back(extTensorcore());
    out.push_back(extDeviationHistogram());
}

} // namespace mparch::report

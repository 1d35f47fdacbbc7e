#include "report/study.hh"

#include <string>

#include "metrics/metrics.hh"

namespace mparch::report {

ResultDoc
studyDocument(const core::StudyResult &result)
{
    const core::StudyConfig &config = result.config;
    ResultDoc doc;
    doc.experiment = "study";
    doc.kind = "study";
    doc.title = std::string(core::architectureName(config.arch)) +
                " / " + config.workload;
    doc.trials = config.trials;
    doc.scale = config.scale;
    doc.jobs = config.jobs;

    auto &main = doc.addTable(
        "main", {"precision", "fit-sdc(a.u.)", "fit-due(a.u.)",
                 "time(s)", "mebf(a.u.)", "avf-dp", "pvf", "tolerable",
                 "crit-frac", "coverage", "poisoned"});
    auto &tre = doc.addTable(
        "FIT reduction vs tolerated relative error",
        {"precision", "tre", "fit-fraction-remaining"});
    using workloads::SdcSeverity;
    for (const auto &row : result.rows) {
        const std::string precision(fp::precisionName(row.precision));
        const fault::CampaignResult &dp = row.datapathCampaign;
        main.row()
            .cell(precision)
            .cell({row.fitSdc(), 3})
            .cell({row.fitDue(), 3})
            .cell({row.timeSeconds, 9})
            .cell({row.mebf, 6})
            .cell({dp.avfSdc(), 4})
            .cell({row.memoryCampaign.avfSdc(), 4})
            .cell({dp.severityFraction(SdcSeverity::Tolerable), 3})
            .cell({dp.severityFraction(SdcSeverity::CriticalChange) +
                       dp.severityFraction(SdcSeverity::DetectionChange),
                   3})
            .cell({row.coverage, 3})
            .cell(static_cast<std::int64_t>(row.poisoned));
        const metrics::TreCurve curve = metrics::treCurve(dp);
        for (std::size_t i = 0; i < curve.thresholds.size(); ++i) {
            tre.row()
                .cell(precision)
                .cell({curve.thresholds[i], 4})
                .cell({curve.remaining[i], 3});
        }
    }
    return doc;
}

} // namespace mparch::report

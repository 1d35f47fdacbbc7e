#include "report/study.hh"

#include <string>

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
    for (const auto &row : result.rows) {
        const std::string precision(fp::precisionName(row.precision));
        main.row()
            .cell(precision)
            .cell({row.fitSdc, 3})
            .cell({row.fitDue, 3})
            .cell({row.timeSeconds, 9})
            .cell({row.mebf, 6})
            .cell({row.avfDatapath, 4})
            .cell({row.pvf, 4})
            .cell({row.severity.tolerable, 3})
            .cell({row.severity.criticalChange +
                       row.severity.detectionChange,
                   3})
            .cell({row.coverage, 3})
            .cell(static_cast<std::int64_t>(row.poisoned));
        for (std::size_t i = 0; i < row.tre.thresholds.size(); ++i) {
            tre.row()
                .cell(precision)
                .cell({row.tre.thresholds[i], 4})
                .cell({row.tre.remaining[i], 3});
        }
    }
    return doc;
}

} // namespace mparch::report

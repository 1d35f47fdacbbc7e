#include "report/registry.hh"

#include <cstdio>
#include <ostream>

#include "common/logging.hh"
#include "common/table.hh"
#include "report/experiments.hh"

namespace mparch::report {

const char *
experimentKindName(ExperimentKind kind)
{
    switch (kind) {
      case ExperimentKind::PaperTable:  return "table";
      case ExperimentKind::PaperFigure: return "figure";
      case ExperimentKind::Ablation:    return "ablation";
      case ExperimentKind::Extension:   return "extension";
      case ExperimentKind::Engine:      return "engine";
    }
    return "?";
}

double
Experiment::paperValue(const std::string &key) const
{
    for (const auto &ref : paper)
        if (ref.key == key)
            return ref.value;
    fatal("experiment ", id, " has no paper value '", key, "'");
    return 0.0;
}

std::uint64_t
Experiment::trialsFor(const RunContext &ctx) const
{
    return ctx.trials ? ctx.trials : defaultTrials;
}

double
Experiment::scaleFor(const RunContext &ctx) const
{
    return ctx.scale > 0.0 ? ctx.scale : defaultScale;
}

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> table = [] {
        std::vector<Experiment> out;
        addFpgaExperiments(out);
        addPhiExperiments(out);
        addGpuExperiments(out);
        addAblationExperiments(out);
        addExtensionExperiments(out);
        return out;
    }();
    return table;
}

ResultDoc
runExperiment(const Experiment &experiment, const RunContext &ctx)
{
    MPARCH_ASSERT(experiment.run, "experiment has no run function");
    ResultDoc doc = experiment.run(experiment, ctx);
    doc.experiment = experiment.id;
    doc.paperRef = experiment.paperRef;
    doc.kind = experimentKindName(experiment.kind);
    doc.title = experiment.title;
    doc.shapeTarget = experiment.shapeTarget;
    doc.trials = experiment.trialsFor(ctx);
    doc.scale = experiment.scaleFor(ctx);
    doc.jobs = ctx.jobs;
    evaluateAll(experiment.checks, doc);
    return doc;
}

Scorecard
printScorecard(const std::vector<ResultDoc> &docs, std::ostream &os)
{
    Scorecard card;
    Table table({"experiment", "paper-ref", "check", "verdict",
                 "observed"});
    table.setTitle("scorecard: machine-checked shape targets vs "
                   "the paper");
    for (const auto &doc : docs) {
        ++card.experimentsRun;
        bool clean = true;
        for (const auto &verdict : doc.verdicts) {
            ++card.checksRun;
            if (verdict.pass)
                ++card.checksPassed;
            else
                clean = false;
            table.row()
                .cell(doc.experiment)
                .cell(doc.paperRef)
                .cell(verdict.id)
                .cell(verdict.pass ? "pass" : "FAIL")
                .cell(verdict.observed);
        }
        if (clean)
            ++card.experimentsClean;
    }
    table.print(os);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%llu/%llu shape targets reproduced; %llu/%llu "
                  "experiments clean\n",
                  static_cast<unsigned long long>(card.checksPassed),
                  static_cast<unsigned long long>(card.checksRun),
                  static_cast<unsigned long long>(
                      card.experimentsClean),
                  static_cast<unsigned long long>(
                      card.experimentsRun));
    os << line;
    return card;
}

} // namespace mparch::report

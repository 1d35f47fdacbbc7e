/**
 * @file
 * The declarative experiment registry.
 *
 * Every table and figure of the paper's reproduction — plus the
 * ablations and beyond-the-paper extensions — is one Experiment
 * descriptor in a single table: identity, paper reference, default
 * campaign knobs, the paper's reference values as data, the shape
 * checks that make its prose claims executable, and a run function
 * producing a structured ResultDoc. The mparch_repro driver is the
 * one front-end over this table (`mparch_repro --filter '^<id>$'`
 * runs one entry); no row-extraction logic lives anywhere else.
 */

#ifndef MPARCH_REPORT_REGISTRY_HH
#define MPARCH_REPORT_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fp/format.hh"
#include "report/document.hh"
#include "report/shapecheck.hh"

namespace mparch::report {

/** What kind of reproduction target an experiment is. */
enum class ExperimentKind
{
    PaperTable,   ///< one of the paper's numbered tables
    PaperFigure,  ///< one of the paper's numbered figures
    Ablation,     ///< ablation of a DESIGN.md modelling decision
    Extension,    ///< beyond-the-paper study
    /** No experiment has this kind; the layered benchmark
     *  (layerbench/) still filters on it. */
    Engine,
};

/** Name of an ExperimentKind ("table" / "figure" / ...). */
const char *experimentKindName(ExperimentKind kind);

/**
 * A paper reference value carried as registry data. Keys are
 * free-form but conventionally "<workload>/<precision>/<metric>".
 */
struct PaperValue
{
    std::string key;
    double value = 0.0;
};

/** Effective knobs for one experiment run (0 = experiment default). */
struct RunContext
{
    std::uint64_t trials = 0;
    double scale = 0.0;

    /** Campaign worker threads: 0 = all hardware threads, 1 =
     *  serial. Results are bit-identical for every value. */
    unsigned jobs = 0;

    /** Progress feedback on stderr. */
    bool progress = true;
};

/** One registered experiment. */
struct Experiment
{
    std::string id;           ///< stable identifier (--filter)
    std::string paperRef;     ///< "Figure 3", "Table 1", "-"
    ExperimentKind kind = ExperimentKind::PaperFigure;
    std::string title;        ///< the report headline
    std::string shapeTarget;  ///< the prose shape target

    std::uint64_t defaultTrials = 0;
    double defaultScale = 0.3;

    /** Deterministic (or campaign-light) enough for the quick
     *  scorecard tier at reduced trials. */
    bool quick = false;

    std::vector<PaperValue> paper;
    std::vector<ShapeCheck> checks;

    /** Produce the result tables/notes (verdicts are appended by
     *  runExperiment). */
    std::function<ResultDoc(const Experiment &, const RunContext &)>
        run;

    /** Paper reference value by key; fatal() when absent (a registry
     *  authoring bug). */
    double paperValue(const std::string &key) const;

    /** Effective knobs after applying this experiment's defaults. */
    std::uint64_t trialsFor(const RunContext &ctx) const;
    double scaleFor(const RunContext &ctx) const;
};

/** The full registry, in paper presentation order. */
const std::vector<Experiment> &experiments();

/**
 * Run one experiment: resolve knobs, execute, stamp metadata and
 * evaluate its shape checks into the document.
 */
ResultDoc runExperiment(const Experiment &experiment,
                        const RunContext &ctx);

/** Aggregate scorecard over several result documents. */
struct Scorecard
{
    std::uint64_t checksRun = 0;
    std::uint64_t checksPassed = 0;
    std::uint64_t experimentsRun = 0;
    std::uint64_t experimentsClean = 0;

    bool allPassed() const { return checksRun == checksPassed; }
};

/** Render the verdict table (one line per shape target) and return
 *  the tallies. */
Scorecard printScorecard(const std::vector<ResultDoc> &docs,
                         std::ostream &os);

} // namespace mparch::report

#endif // MPARCH_REPORT_REGISTRY_HH

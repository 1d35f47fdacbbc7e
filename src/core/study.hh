/**
 * @file
 * The top-level mixed-precision reliability study API.
 *
 * This is the library's front door: pick an architecture, a
 * benchmark and a set of precisions, and get back the quantities the
 * paper reports — SDC/DUE FIT (a.u.), execution time, MEBF, the
 * FIT-reduction-vs-TRE curve and the SDC criticality split — with
 * all AVFs measured by fault-injection campaigns against the
 * softfloat-simulated workload.
 *
 * Typical use (see examples/quickstart.cpp; report::studyDocument
 * renders the result):
 * @code
 *   core::StudyConfig config;
 *   config.arch = core::Architecture::Gpu;
 *   config.workload = "mxm";
 *   const core::StudyResult result = core::runStudy(config);
 *   report::studyDocument(result).print(std::cout);
 * @endcode
 */

#ifndef MPARCH_CORE_STUDY_HH
#define MPARCH_CORE_STUDY_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/metrics.hh"
#include "workloads/workload.hh"

namespace mparch::core {

/** The three devices the paper irradiates. */
enum class Architecture { Fpga, XeonPhi, Gpu };

/** Name of an Architecture ("fpga", "xeon-phi", "gpu"). */
const char *architectureName(Architecture arch);

/** Inverse of architectureName(); nullopt for an unknown name. */
std::optional<Architecture> parseArchitecture(std::string_view name);

/** Whether the device's model implements @p p: every precision
 *  except on KNC, which has neither half nor bfloat16. */
bool supportsPrecision(Architecture arch, fp::Precision p);

/** The paper's precisions (fp::allPrecisions) the device supports;
 *  what a study evaluates by default. */
std::vector<fp::Precision> supportedPrecisions(Architecture arch);

/** Study configuration. */
struct StudyConfig
{
    Architecture arch = Architecture::Gpu;
    std::string workload = "mxm";

    /** Precisions to evaluate; empty = all the device supports. */
    std::vector<fp::Precision> precisions;

    /** Problem-size knob forwarded to the workload factory. */
    double scale = 0.15;

    /** Injection trials per campaign (paper: >2000 per data type;
     *  the default trades precision for turnaround). */
    std::uint64_t trials = 400;

    /** Campaign seed. */
    std::uint64_t seed = 7;

    /** Directory for per-campaign trial journals; empty disables
     *  journaling. Each campaign writes one append-only journal
     *  (see docs/campaigns.md) so an interrupted study can resume. */
    std::string journalDir;

    /** Resume from existing journals in journalDir: completed trials
     *  are loaded instead of re-run. Refuses (and reports a partial
     *  campaign) if a journal disagrees with this configuration. */
    bool resume = false;

    /** Trial records buffered between journal flushes; a killed
     *  process loses at most one batch. */
    std::uint64_t batchSize = 256;

    /** Worker threads per campaign: 0 = all hardware threads,
     *  1 = serial. Results are bit-identical for every value (see
     *  docs/performance.md). */
    unsigned jobs = 0;
};

/** Everything measured for one precision. */
struct PrecisionResult
{
    fp::Precision precision = fp::Precision::Double;

    double fitSdc = 0.0;       ///< a.u.
    double fitDue = 0.0;       ///< a.u.
    double timeSeconds = 0.0;  ///< modelled execution time
    double mebf = 0.0;         ///< a.u.

    /** Propagation probabilities. */
    double avfDatapath = 0.0;  ///< functional-unit injection
    double pvf = 0.0;          ///< variable (CAROL-FI) injection

    /** FIT-reduction curve (beam-like datapath corpus). */
    metrics::TreCurve tre;

    /** SDC severity split (CNN workloads; numeric kernels report
     *  100% critical-change and defer to TRE). */
    metrics::CriticalitySplit severity;

    /** Phi extra: instantiated vector registers (zero elsewhere). */
    int vectorRegisters = 0;

    /** Completed fraction of the planned trials (minimum over the
     *  precision's campaigns); < 1 when a campaign degraded. */
    double coverage = 1.0;

    /** Trials the supervisor abandoned after repeated failures. */
    std::uint64_t poisoned = 0;
};

/** A full study: one architecture x workload, several precisions. */
struct StudyResult
{
    StudyConfig config;
    std::vector<PrecisionResult> rows;

    /** Row for a precision, if evaluated. */
    const PrecisionResult *find(fp::Precision p) const;
};

/** Run the campaigns and models for every requested precision.
 *  Identical un-journaled studies are computed once per process
 *  (until fault::clearGoldenRunCache(); see docs/performance.md).
 *  Thread-safe. */
StudyResult runStudy(const StudyConfig &config);

} // namespace mparch::core

#endif // MPARCH_CORE_STUDY_HH

/**
 * @file
 * The top-level mixed-precision reliability study API.
 *
 * This is the library's front door: pick an architecture, a
 * benchmark and a set of precisions, and get back one row per
 * precision. A row is the device model's arch::DeviceEvaluation
 * itself: both injection campaigns against the softfloat-simulated
 * workload (trial, SDC and DUE tallies; the datapath campaign also
 * keeps its SDC corpus), the exposure inventory their AVFs fill and
 * the modelled execution time. The paper's quantities read straight
 * off it: SDC/DUE FIT (a.u.) from the inventory, MEBF, AVF/PVF and
 * their Wilson intervals from the tallies, the FIT-reduction-vs-TRE
 * curve and the SDC criticality split from the corpus.
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

#include "arch/device.hh"
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

/** A full study: one architecture x workload, several precisions. */
struct StudyResult
{
    StudyConfig config;

    /** One device evaluation per precision, in evaluation order. */
    std::vector<arch::DeviceEvaluation> rows;

    /** Row for a precision, if evaluated. */
    const arch::DeviceEvaluation *find(fp::Precision p) const;
};

/** Run the campaigns and models for every requested precision.
 *  Identical un-journaled studies are computed once per process
 *  (until fault::clearGoldenRunCache(); see docs/performance.md).
 *  Thread-safe. */
StudyResult runStudy(const StudyConfig &config);

} // namespace mparch::core

#endif // MPARCH_CORE_STUDY_HH

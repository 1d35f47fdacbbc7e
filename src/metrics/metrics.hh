/**
 * @file
 * Reliability metrics: FIT normalisation, MEBF, TRE curves and
 * campaign coverage, on top of a campaign's own tallies
 * (fault::CampaignResult).
 */

#ifndef MPARCH_METRICS_METRICS_HH
#define MPARCH_METRICS_METRICS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "fault/campaign.hh"
#include "fault/supervisor.hh"

namespace mparch::metrics {

/**
 * Mean Executions Between Failures.
 *
 * MEBF = 1 / (FIT x execution time): the number of correct executions
 * completed before a failure (paper Section 3.2, [35]). Arbitrary
 * units, like FIT.
 */
inline double
mebf(double fit, double exec_time_s)
{
    if (fit <= 0.0 || exec_time_s <= 0.0)
        return 0.0;
    return 1.0 / (fit * exec_time_s);
}

/** Scale a series so its largest element is 1 (a.u. presentation). */
std::vector<double> normalizeToMax(const std::vector<double> &values);

/** TRE thresholds used across the paper's criticality figures. */
inline constexpr std::array<double, 8> kTreThresholds = {
    0.0, 1e-4, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
};

/** One FIT-reduction-vs-TRE curve (paper Figures 4, 8, 11a/11b). */
struct TreCurve
{
    /** Thresholds (fractions, 0.01 == 1%). */
    std::vector<double> thresholds;

    /**
     * Fraction of the TRE=0 SDC FIT that remains critical at each
     * threshold (1.0 at index 0 whenever any SDC occurred).
     */
    std::vector<double> remaining;
};

/** Build a TRE curve from a campaign's SDC corpus. */
TreCurve treCurve(const fault::CampaignResult &result);

/**
 * Completion summary of a supervised campaign (partial coverage).
 *
 * A degraded campaign still yields unbiased AVF point estimates —
 * the supervisor skips trials by index, never by outcome — but the
 * Wilson interval widens with the shrunken sample. Reporting both
 * keeps a partial run from being mistaken for a full one.
 */
struct CoverageReport
{
    std::uint64_t planned = 0;   ///< trials this run owned
    std::uint64_t completed = 0; ///< trials with a recorded outcome
    std::uint64_t poisoned = 0;  ///< abandoned: the workload threw
    double coverage = 1.0;       ///< completed / planned
    bool degraded = false;       ///< incomplete or any poisoned
    Interval avfSdc95;           ///< Wilson interval at achieved n
};

/** Summarise a supervised campaign's completion state. */
CoverageReport coverageReport(const fault::SupervisedCampaign &run);

/**
 * Effective SDC rate of a *persistent*-fault device (FPGA
 * configuration memory) under periodic scrubbing.
 *
 * Faults arrive as a Poisson process at @p raw_rate (a.u. per unit
 * time) and accumulate until the next scrub; each independently
 * corrupts the output with probability @p avf, so propagating
 * upsets form a thinned Poisson process of rate raw_rate * avf.
 * The observed error rate per unit time is
 * (1 - exp(-raw_rate * avf * interval)) / interval — approaching
 * the paper's reprogram-on-error figure raw_rate * avf as the
 * interval shrinks, and saturating towards 1/interval as faults
 * pile up (Section 4's scrubbing discussion [42]).
 */
double scrubbedErrorRate(double raw_rate, double avf,
                         double interval);

} // namespace mparch::metrics

#endif // MPARCH_METRICS_METRICS_HH

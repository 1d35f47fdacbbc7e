/**
 * @file
 * Interval estimators for campaign results.
 *
 * Fault-injection campaigns produce Bernoulli outcomes (propagated /
 * masked) and beam campaigns produce Poisson counts; both need
 * confidence intervals so that "single > double" style conclusions in
 * EXPERIMENTS.md are statistically grounded, as in the paper's
 * methodology.
 */

#ifndef MPARCH_COMMON_STATS_HH
#define MPARCH_COMMON_STATS_HH

#include <cstdint>

namespace mparch {

/** Closed interval [lo, hi]. */
struct Interval
{
    double lo = 0.0;
    double hi = 0.0;

    /** True if @p x lies inside the interval. */
    bool contains(double x) const { return x >= lo && x <= hi; }
};

/**
 * Wilson score 95% interval for a binomial proportion.
 *
 * Used for AVF/PVF estimates: @p hits propagated faults out of
 * @p trials injections.
 */
Interval wilson95(std::uint64_t hits, std::uint64_t trials);

/**
 * Normal-approximation 95% interval for a Poisson rate.
 *
 * Used for FIT estimates: @p events errors over @p exposure units of
 * fluence/time. Falls back to the exact-ish Garwood bound behaviour
 * for tiny counts by clamping the lower bound at zero.
 */
Interval poissonRate95(std::uint64_t events, double exposure);

} // namespace mparch

#endif // MPARCH_COMMON_STATS_HH

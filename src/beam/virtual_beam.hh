/**
 * @file
 * Monte Carlo virtual beam experiment.
 *
 * Mirrors the ChipIR methodology (paper Section 3.2): neutrons arrive
 * as a Poisson process over the exposed resources; each arrival picks
 * a resource class proportionally to bits x sensitivity and either
 * resolves through a real injected execution (callback mode) or
 * through the class's measured AVF (analytic mode). Every arrival is
 * resolved on its own, as one fault in one execution: the model
 * assumes the paper's single-fault regime and neither sizes the
 * fluence to keep it nor checks it. FIT estimates come with Poisson
 * confidence intervals.
 */

#ifndef MPARCH_BEAM_VIRTUAL_BEAM_HH
#define MPARCH_BEAM_VIRTUAL_BEAM_HH

#include <cstdint>
#include <functional>

#include "beam/inventory.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace mparch::beam {

/** Outcome of one beam-induced fault. */
enum class BeamOutcome { Masked, Sdc, Due };

/** Tally of a virtual beam campaign. */
struct BeamResult
{
    double fluence = 0.0;       ///< accumulated beam time (a.u.)
    std::uint64_t faults = 0;   ///< particle-induced upsets
    std::uint64_t sdc = 0;
    std::uint64_t due = 0;

    /** Measured SDC FIT (a.u.) with its 95% interval. */
    double
    fitSdc() const
    {
        return fluence > 0.0 ? static_cast<double>(sdc) / fluence
                             : 0.0;
    }

    /** 95% Poisson interval on fitSdc(). */
    Interval fitSdc95() const { return poissonRate95(sdc, fluence); }

    /** Measured DUE FIT (a.u.). */
    double
    fitDue() const
    {
        return fluence > 0.0 ? static_cast<double>(due) / fluence
                             : 0.0;
    }
};

/**
 * Resolve one fault in entry @p index to an outcome (e.g. by running
 * a real injected execution of the workload).
 */
using FaultResolver =
    std::function<BeamOutcome(std::size_t index, Rng &rng)>;

/**
 * Run a virtual beam campaign.
 *
 * @param inventory Exposure inventory of the configuration.
 * @param fluence   Beam exposure in arbitrary time units.
 * @param rng       Randomness source.
 * @param resolver  Optional real-execution resolver; when empty,
 *                  outcomes are drawn from the entries' stored AVFs.
 */
BeamResult runBeam(const ResourceInventory &inventory, double fluence,
                   Rng &rng, const FaultResolver &resolver = {});

} // namespace mparch::beam

#endif // MPARCH_BEAM_VIRTUAL_BEAM_HH

/**
 * @file
 * Beam-time planning helpers.
 *
 * The paper's methodology section sizes its campaigns in exactly
 * these terms: ChipIR's flux is ~8 orders of magnitude above the
 * terrestrial 13 n/(cm^2 h) reference (JESD89A [33]), each of the 30
 * configurations got >= 100 beam hours (equivalent to >= 11,000
 * years of natural exposure), and error rates were kept under 1e-3
 * errors/execution so that double faults per run stay negligible.
 * These helpers reproduce those calculations so campaign configs can
 * be justified the same way.
 */

#ifndef MPARCH_BEAM_EXPOSURE_HH
#define MPARCH_BEAM_EXPOSURE_HH

#include "common/logging.hh"

namespace mparch::beam {

/** JESD89A reference terrestrial flux at sea level, n/(cm^2 h). */
inline constexpr double kTerrestrialFlux = 13.0;

/** Hours per (average) year. */
inline constexpr double kHoursPerYear = 8766.0;

/** Beam-to-nature acceleration factor for a given beam flux. */
constexpr double
accelerationFactor(double beam_flux,
                   double natural_flux = kTerrestrialFlux)
{
    return beam_flux / natural_flux;
}

/** Natural-exposure years represented by a beam campaign. */
constexpr double
naturalYearsEquivalent(double beam_hours, double acceleration)
{
    return beam_hours * acceleration / kHoursPerYear;
}

/**
 * Beam hours needed to observe @p target_errors expected errors from
 * a device whose error rate under beam is @p beam_error_rate
 * (errors per hour).
 */
constexpr double
beamHoursForErrors(double beam_error_rate, double target_errors)
{
    return beam_error_rate > 0.0 ? target_errors / beam_error_rate
                                 : 0.0;
}

} // namespace mparch::beam

#endif // MPARCH_BEAM_EXPOSURE_HH

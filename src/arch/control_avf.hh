/**
 * @file
 * The control-state injection campaign both scheduler simulators run.
 *
 * The GPU SM simulator (gpu/sm_sim.hh) and the Phi VPU simulator
 * (phi/vpu_sim.hh) measure their control AVF the same way: a golden
 * run, then per trial one flipped control bit at a random cycle and a
 * re-run capped at fault::kTimeoutFactor x the golden cycle count. A
 * capped run is a hang (DUE); one that issued a different number of
 * instructions, or that the simulator flags as silently corrupted, is
 * an SDC; anything else is masked.
 */

#ifndef MPARCH_ARCH_CONTROL_AVF_HH
#define MPARCH_ARCH_CONTROL_AVF_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/stats.hh"
#include "fault/campaign.hh"

namespace mparch::arch {

/** One scheduled flip of a control-state bit. */
struct ControlFlip
{
    std::uint64_t cycle = ~0ULL;
    /** The warp (SM) or hardware thread (VPU) whose state it hits. */
    int context = 0;
    /** Which control bit; each simulator maps the index to its state. */
    unsigned bit = 0;
};

/** What a scheduler run ended as. */
struct ControlRun
{
    std::uint64_t cycles = 0;
    std::uint64_t issued = 0;
    bool hang = false;
    /** A corruption the issued count does not show (SM: a shortened
     *  scoreboard timer, a stale read; VPU: a changed lane mask). */
    bool corrupt = false;
};

/** Outcome tally of a control-state injection campaign. */
struct ControlAvf
{
    std::uint64_t trials = 0;
    std::uint64_t masked = 0;
    std::uint64_t sdc = 0;   ///< wrong instruction count or corruption
    std::uint64_t due = 0;   ///< hang (watchdog)

    /** P(control-bit flip -> DUE). */
    double
    avfDue() const
    {
        return trials ? static_cast<double>(due) /
                            static_cast<double>(trials)
                      : 0.0;
    }

    /** P(control-bit flip -> program-level SDC). */
    double
    avfSdc() const
    {
        return trials ? static_cast<double>(sdc) /
                            static_cast<double>(trials)
                      : 0.0;
    }

    /** Wilson 95% interval on avfDue(). */
    Interval due95() const { return wilson95(due, trials); }
};

/**
 * @p trials control flips, each drawn from one Rng seeded @p seed as
 * a cycle of the golden run, then one of @p contexts contexts, then
 * one of @p bits bits, and classified by re-running @p run(flip, cap),
 * a ControlRun. @p run(nullptr, cap) is the golden run.
 */
template <class Run>
ControlAvf
measureControlFlips(Run run, int contexts, unsigned bits,
                    std::uint64_t trials, std::uint64_t seed)
{
    const ControlRun golden = run(nullptr, ~0ULL >> 1);
    const std::uint64_t cap = fault::kTimeoutFactor * golden.cycles;

    Rng rng(seed);
    ControlAvf result;
    for (std::uint64_t t = 0; t < trials; ++t) {
        ControlFlip flip;
        flip.cycle = rng.below(golden.cycles);
        flip.context = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(contexts)));
        flip.bit = static_cast<unsigned>(rng.below(bits));
        const ControlRun r = run(&flip, cap);
        ++result.trials;
        if (r.hang)
            ++result.due;
        else if (r.issued != golden.issued || r.corrupt)
            ++result.sdc;
        else
            ++result.masked;
    }
    return result;
}

} // namespace mparch::arch

#endif // MPARCH_ARCH_CONTROL_AVF_HH

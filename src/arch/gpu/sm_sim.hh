/**
 * @file
 * Cycle-level model of one Volta SM scheduler partition.
 *
 * The analytic GPU model (gpu.cc) reasons about occupancy and control
 * exposure with closed-form factors; this simulator grounds those
 * factors: a round-robin warp scheduler with a scoreboard issues the
 * micro kernels' dependent chains at the real per-precision latencies
 * (8 / 4 / 6-per-pair cycles), yielding cycle counts, issue
 * utilisation and in-flight occupancy. Its architectural control
 * state (per-warp program counters, scoreboard timers, active mask)
 * is also a fault-injection target: flipping a random control bit at
 * a random cycle and re-simulating measures how often scheduler
 * corruption ends as a hang (DUE), a truncated/extended execution
 * (SDC at the program level) or nothing — the control-AVF the
 * inventory otherwise had to assume.
 */

#ifndef MPARCH_ARCH_GPU_SM_SIM_HH
#define MPARCH_ARCH_GPU_SM_SIM_HH

#include <cstdint>

#include "common/stats.hh"
#include "fp/format.hh"

namespace mparch::gpu {

/** A homogeneous warp instruction stream. */
struct WarpProgram
{
    /** Instructions each warp executes. */
    std::uint64_t instructions = 256;

    /** RAW-dependent chain (micro kernels) vs independent stream. */
    bool dependentChain = true;

    /** Maximum in-flight instructions per warp when independent. */
    int maxInFlight = 4;
};

/** Scheduler-partition configuration. */
struct SmConfig
{
    fp::Precision precision = fp::Precision::Single;

    /** Resident warps on the partition (256 threads / 32 = 8 for
     *  the paper's deliberately low-occupancy micro setup). */
    int warps = 8;

    /** Instructions issued per cycle by the scheduler. */
    int issueSlots = 1;
};

/** Results of a fault-free simulation. */
struct SmStats
{
    std::uint64_t cycles = 0;

    /** Fraction of cycles on which an instruction issued. */
    double issueUtilization = 0.0;

    /** Mean operations resident in execution pipelines per cycle. */
    double avgInFlight = 0.0;

    /** Architectural control bits the scheduler carries. */
    double controlBits = 0.0;
};

/** Run the scheduler fault-free. */
SmStats simulateSm(const SmConfig &config, const WarpProgram &program);

/** Outcome tally of a control-state injection campaign. */
struct ControlAvf
{
    std::uint64_t trials = 0;
    std::uint64_t masked = 0;
    std::uint64_t sdc = 0;   ///< wrong instruction count completed
    std::uint64_t due = 0;   ///< hang (watchdog) or lost warp

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
 * Inject single bit flips into the scheduler's architectural state
 * (remaining-instruction counters, scoreboard timers, active-warp
 * mask) at uniformly random cycles, re-simulating each time. A
 * run past fault::kTimeoutFactor x the fault-free cycle count hangs.
 */
ControlAvf measureControlAvf(const SmConfig &config,
                             const WarpProgram &program,
                             std::uint64_t trials, std::uint64_t seed);

} // namespace mparch::gpu

#endif // MPARCH_ARCH_GPU_SM_SIM_HH

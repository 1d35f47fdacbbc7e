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

#include "arch/control_avf.hh"
#include "fp/format.hh"

namespace mparch::gpu {

/** A homogeneous warp instruction stream: a RAW-dependent chain, as
 *  the micro kernels run, so a warp issues again only once its last
 *  instruction completed. */
struct WarpProgram
{
    /** Instructions each warp executes. */
    std::uint64_t instructions = 256;
};

/** Scheduler-partition configuration. The scheduler issues at most
 *  one instruction per cycle. */
struct SmConfig
{
    fp::Precision precision = fp::Precision::Single;

    /** Resident warps on the partition (256 threads / 32 = 8 for
     *  the paper's deliberately low-occupancy micro setup). */
    int warps = 8;
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

/**
 * Inject single bit flips into the scheduler's architectural state
 * (remaining-instruction counters, scoreboard timers, active-warp
 * mask) at uniformly random cycles, re-simulating each time
 * (arch::measureControlFlips).
 */
arch::ControlAvf measureControlAvf(const SmConfig &config,
                                   const WarpProgram &program,
                                   std::uint64_t trials,
                                   std::uint64_t seed);

} // namespace mparch::gpu

#endif // MPARCH_ARCH_GPU_SM_SIM_HH

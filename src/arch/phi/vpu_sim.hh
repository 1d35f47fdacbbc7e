/**
 * @file
 * Cycle-level model of one KNC core's vector pipe.
 *
 * Knights Corner cores are in-order and cannot issue from the same
 * hardware thread on consecutive cycles, which is why real KNC codes
 * need >= 2 resident threads per core and why the vectoriser's
 * software-pipelining depth (CompiledKernel::pipelineDepth) matters:
 * a depth-u unrolled loop exposes u independent vector FMAs per
 * thread to hide the 4-cycle VPU latency. This simulator grounds
 * both effects, and its architectural control state — per-thread
 * remaining-instruction counters, the round-robin pointer, and the
 * per-lane write masks whose width doubles from double (8 lanes) to
 * single (16) — doubles as a fault-injection target for measuring
 * the control AVF the Phi inventory otherwise assumes.
 */

#ifndef MPARCH_ARCH_PHI_VPU_SIM_HH
#define MPARCH_ARCH_PHI_VPU_SIM_HH

#include <cstdint>

#include "arch/control_avf.hh"
#include "fp/format.hh"

namespace mparch::phi {

/** One thread's vector instruction stream. */
struct VpuProgram
{
    /** Vector instructions per thread. */
    std::uint64_t instructions = 256;

    /** Independent instructions per unrolled iteration (the
     *  compiler model's pipelineDepth). */
    int unroll = 1;
};

/** Core configuration. */
struct VpuConfig
{
    fp::Precision precision = fp::Precision::Double;

    /** Resident hardware threads (KNC has 4 contexts/core). */
    int threads = 4;
};

/** Fault-free simulation results. */
struct VpuStats
{
    std::uint64_t cycles = 0;
    double issueUtilization = 0.0;
    double controlBits = 0.0;  ///< counters + RR pointer + lane masks
};

/** Run the core fault-free. */
VpuStats simulateVpu(const VpuConfig &config,
                     const VpuProgram &program);

/**
 * Flip one random control bit (instruction counter, round-robin
 * pointer, or an active lane-mask bit) at a random cycle and
 * re-simulate. Lane-mask corruption silently drops or duplicates
 * lane results (SDC); counter corruption truncates or overruns the
 * program (SDC or watchdog DUE); arch::measureControlFlips runs the
 * campaign.
 */
arch::ControlAvf measureVpuControlAvf(const VpuConfig &config,
                                      const VpuProgram &program,
                                      std::uint64_t trials,
                                      std::uint64_t seed);

} // namespace mparch::phi

#endif // MPARCH_ARCH_PHI_VPU_SIM_HH

/**
 * @file
 * Zynq-7000 reliability model.
 *
 * An accelerator is synthesised from a workload's dynamic operation
 * profile into a fixed set of pipelined physical operators plus BRAM
 * buffers. Reliability follows the paper's FPGA analysis (Section 4):
 * faults strike the configuration memory (persistent until the
 * bitstream is reloaded — modelled by PersistentDatapathHook
 * campaigns) and BRAM contents (transient data faults); the FIT rate
 * is exposure x sensitivity x measured AVF. No DUEs occur: the
 * design runs bare-metal with no scheduler to corrupt, matching the
 * paper's observation.
 */

#ifndef MPARCH_ARCH_FPGA_FPGA_HH
#define MPARCH_ARCH_FPGA_FPGA_HH

#include "arch/device.hh"
#include "arch/fpga/opcost.hh"
#include "fault/campaign.hh"
#include "workloads/workload.hh"

namespace mparch::fpga {

/** Synthesis result: the circuit implementing one workload. */
struct CircuitReport
{
    /** Physical engines with their operator instance counts. */
    std::vector<fault::EngineAllocation> engines;

    double luts = 0.0;
    double dsps = 0.0;
    double brams = 0.0;      ///< RAMB18 blocks
    double bramBits = 0.0;   ///< used content bits
    double configBits = 0.0; ///< used configuration memory bits
    double cycles = 0.0;     ///< pipelined execution latency
};

/**
 * Map a workload onto the PE budget.
 *
 * The dominant operation kind receives the full budget; other kinds
 * get instances proportional to their dynamic share (at least one).
 * Execution cycles assume initiation-interval-1 pipelines.
 */
CircuitReport synthesize(workloads::Workload &w,
                         const fault::GoldenRun &golden);

/** Seed of stand-alone evaluations (ablations, model tests). */
inline constexpr std::uint64_t kDefaultSeed = 11;

/**
 * Synthesis, then the persistent config-memory campaign (seed
 * options.seed, the datapath campaign) and the BRAM content campaign
 * (options.seed + 1, the memory campaign); FIT and MEBF (SDC only:
 * no FPGA DUEs) from the circuit's exposure.
 */
arch::DeviceEvaluation evaluateFpga(workloads::Workload &w,
                                    const arch::DeviceOptions &options);

} // namespace mparch::fpga

#endif // MPARCH_ARCH_FPGA_FPGA_HH

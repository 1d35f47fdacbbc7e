/**
 * @file
 * NVIDIA Volta (Titan V) reliability model.
 *
 * FIT composes three exposure terms, following the paper's Section 6
 * analysis: (1) functional-unit datapath state — active cores times
 * the mix-weighted per-core bits (fewer but wider FP64 cores against
 * more FP32/half2 cores); (2) unprotected cache/memory residency,
 * scaled by the kernel's arithmetic intensity (why the non-tiled MxM
 * dwarfs LavaMD); (3) scheduler/control state whose upsets become
 * DUEs, scaled by branch density (why CNNs crash more). AVFs are
 * measured by injection, never assumed.
 */

#ifndef MPARCH_ARCH_GPU_GPU_HH
#define MPARCH_ARCH_GPU_GPU_HH

#include "arch/device.hh"
#include "arch/gpu/datapath.hh"
#include "arch/gpu/regfile.hh"
#include "fault/campaign.hh"
#include "workloads/workload.hh"

namespace mparch::gpu {

/** Seed of stand-alone evaluations (ablations, model tests). */
inline constexpr std::uint64_t kDefaultSeed = 31;

/** Execution-time model only (Table 3). */
double gpuTimeSeconds(workloads::Workload &w,
                      const fault::GoldenRun &golden);

/**
 * The functional-unit campaign (seed options.seed, the datapath
 * campaign), then the cache-resident data campaign (options.seed + 1,
 * the memory campaign); FIT, and MEBF over SDC + DUE.
 */
arch::DeviceEvaluation evaluateGpu(workloads::Workload &w,
                                   const arch::DeviceOptions &options);

} // namespace mparch::gpu

#endif // MPARCH_ARCH_GPU_GPU_HH

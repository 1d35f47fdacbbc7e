/**
 * @file
 * Xeon Phi (KNC) reliability model.
 *
 * The paper's Phi analysis (Section 5) rests on three mechanisms,
 * all modelled here: (1) the compiler instantiates more vector
 * registers for single precision, a symptom of higher unprotected
 * functional-unit/queue usage, so single's raw fault rate is higher;
 * (2) the probability of propagation (PVF, CAROL-FI single-bit flips
 * in program variables) is precision-independent; (3) 16 single
 * lanes carry twice the control state of 8 double lanes, raising the
 * single-precision DUE rate for every code.
 */

#ifndef MPARCH_ARCH_PHI_PHI_HH
#define MPARCH_ARCH_PHI_PHI_HH

#include "arch/device.hh"
#include "arch/phi/compiler_model.hh"
#include "fault/campaign.hh"
#include "workloads/workload.hh"

namespace mparch::phi {

/** Seed of stand-alone evaluations (ablations, model tests). */
inline constexpr std::uint64_t kDefaultSeed = 23;

/** KNC implements double and single precision only. */
inline bool
implementsPrecision(fp::Precision p)
{
    return p == fp::Precision::Double || p == fp::Precision::Single;
}

/** Execution-time model only (Table 2). */
double phiTimeSeconds(workloads::Workload &w,
                      const fault::GoldenRun &golden);

/**
 * The PVF campaign (seed options.seed, the memory campaign), then
 * the functional-unit campaign (options.seed + 1, the datapath
 * campaign); FIT, and MEBF over SDC + DUE. Fatal for a precision
 * KNC does not implement.
 */
arch::DeviceEvaluation evaluatePhi(workloads::Workload &w,
                                   const arch::DeviceOptions &options);

} // namespace mparch::phi

#endif // MPARCH_ARCH_PHI_PHI_HH

/**
 * @file
 * Register-file liveness AVF experiment (paper Figure 12).
 *
 * Reproduces the paper's GPU fault-injection protocol: "a single bit
 * flip on a randomly selected register in a random application
 * execution time". A micro thread's architectural context is four
 * 32-bit registers; a double value occupies two of them, a single
 * one, and half2 packs two live half values into one. The injection
 * picks a uniformly random (cycle, register bit); hits on live state
 * are replayed through the real softfloat chain to see whether the
 * final output changes. Double's AVF comes out ~2x single's because
 * twice as many of the allocated bits are live — the paper's
 * "more complex (and vulnerable)" double datapath, measured rather
 * than asserted.
 */

#ifndef MPARCH_ARCH_GPU_REGFILE_HH
#define MPARCH_ARCH_GPU_REGFILE_HH

#include <cstdint>

#include "common/stats.hh"
#include "workloads/micro.hh"

namespace mparch::gpu {

/** Result of a register-liveness injection campaign. */
struct RegFileAvf
{
    std::uint64_t trials = 0;
    std::uint64_t sdc = 0;

    /** P(SDC | uniform flip in the thread's register allocation). */
    double
    avfSdc() const
    {
        return trials ? static_cast<double>(sdc) /
                            static_cast<double>(trials)
                      : 0.0;
    }

    /** Wilson 95% interval. */
    Interval avf95() const { return wilson95(sdc, trials); }
};

/**
 * Run the campaign for one micro operation at one precision.
 *
 * @param op        Chain operation (ADD / MUL / FMA).
 * @param p         Data precision.
 * @param trials    Injections.
 * @param seed      Campaign seed.
 * @param chain_len Operations per chain (kept small; AVF converges
 *                  quickly in chain length).
 */
RegFileAvf measureRegFileAvf(workloads::MicroOp op, fp::Precision p,
                             std::uint64_t trials, std::uint64_t seed,
                             std::size_t chain_len = 256);

} // namespace mparch::gpu

#endif // MPARCH_ARCH_GPU_REGFILE_HH

/**
 * @file
 * NVIDIA Titan V (Volta) model parameters.
 *
 * Structural constants follow the Volta whitepaper [19] and the
 * microbenchmark study of Jia et al. [25], both cited by the paper:
 * 5,376 FP32 cores vs 2,688 FP64 cores, half precision executed as
 * two packed operations on an FP32 core, and per-op latencies of 8
 * (double), 4 (single) and 6 (two halves) cycles regardless of the
 * operation. Calibration constants are marked as such.
 */

#ifndef MPARCH_ARCH_GPU_PARAMS_HH
#define MPARCH_ARCH_GPU_PARAMS_HH

#include "fp/format.hh"
#include "workloads/micro.hh"

namespace mparch::gpu {

/** FP32 (and half2) cores. */
inline constexpr int kFp32Cores = 5376;

/** FP64 cores. */
inline constexpr int kFp64Cores = 2688;

/** Streaming multiprocessors. */
inline constexpr int kSmCount = 80;

/** Boost clock in Hz. */
inline constexpr double kClockHz = 1.455e9;

/** 32-bit architectural registers allocated per micro thread. */
inline constexpr int kThreadRegs = 8;

/** Cores able to execute the given precision. */
constexpr int
activeCores(fp::Precision p)
{
    return p == fp::Precision::Double ? kFp64Cores : kFp32Cores;
}

/** Arithmetic latency in cycles (half: 6 cycles for TWO ops). */
constexpr double
opLatencyCycles(fp::Precision p)
{
    switch (p) {
      case fp::Precision::Double: return 8.0;
      case fp::Precision::Single: return 4.0;
      case fp::Precision::Half:   return 3.0;  // 6 per packed pair
      case fp::Precision::Bfloat16: return 3.0;  // packed like half2
    }
    return 8.0;
}

/** Packed operations per issued instruction (16-bit formats = 2). */
constexpr double
packFactor(fp::Precision p)
{
    return fp::formatOf(p).totalBits == 16 ? 2.0 : 1.0;
}

/** Fixed per-core sequencing/control latch bits. Calibration. */
inline constexpr double kCoreControlBits = 140.0;

/**
 * Exponent of the multiplier-array vulnerable-state scaling law.
 *
 * A radix-4 Booth multiplier's combinational array grows ~m^2, but
 * its *latchable* state (pipeline registers between compressor
 * stages) grows subquadratically; 1.6 reproduces the relative
 * MUL/FMA FIT magnitudes of Figure 10a. Calibration.
 */
inline constexpr double kMulBitExponent = 1.6;

/** Scheduler/dispatch control bits per SM. Calibration. */
inline constexpr double kSmControlBits = 900.0;

/** Cache/memory residency factor: exposed bit-seconds per footprint
 *  bit scale as kResidencyScale / arithmetic intensity. */
inline constexpr double kResidencyScale = 2.0;

/**
 * Sustained-throughput efficiency per (workload, precision) for the
 * timing model. Micro kernels are latency-bound dependent chains and
 * bypass this table. Calibrated against the paper's Table 3, with
 * two mechanisms worth naming: MxM (no shared-memory tiling) is
 * bandwidth-bound, so its gains from precision are muted; YOLOv3's
 * half build converts tensors layer-by-layer between half and float
 * (the known darknet half path), which makes half *slower* than
 * single despite the cheaper arithmetic.
 */
double throughputEfficiency(const std::string &workload,
                            fp::Precision p);

} // namespace mparch::gpu

#endif // MPARCH_ARCH_GPU_PARAMS_HH

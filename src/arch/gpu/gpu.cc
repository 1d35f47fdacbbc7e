#include "arch/gpu/gpu.hh"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>

#include "arch/gpu/params.hh"
#include "arch/gpu/sm_sim.hh"
#include "metrics/metrics.hh"

namespace mparch::gpu {

using fp::Precision;
using workloads::Workload;

double
throughputEfficiency(const std::string &workload, Precision p)
{
    // Calibrated against the paper's Table 3 (see params.hh).
    if (workload == "mxm") {
        // Bandwidth-bound without shared-memory tiling: the extra
        // FP32/half2 cores cannot be fed, muting the speedups.
        switch (p) {
          case Precision::Double: return 0.50;
          case Precision::Single: return 0.305;
          case Precision::Half:   return 0.247;
          default:                return 0.247;
        }
    }
    if (workload == "yolite") {
        // The half build converts activations layer-by-layer between
        // half and float (darknet's half path), making half slower
        // than single despite cheaper arithmetic.
        switch (p) {
          case Precision::Double: return 0.50;
          case Precision::Single: return 0.42;
          case Precision::Half:   return 0.059;
          default:                return 0.059;
        }
    }
    // Compute-bound default (LavaMD-like): constant efficiency, so
    // speedups follow the core counts and half2 packing directly.
    return 0.25;
}

namespace {

/**
 * Measured P(scheduler-state upset -> DUE), from the SM simulator's
 * control-injection campaign (memoised per precision), so the
 * inventory's control entry uses an AVF that was measured, like every
 * other entry, rather than an assumed factor.
 */
double
controlDueAvf(Precision p)
{
    // Concurrent studies (core::runStudy is reentrant) share it; one
    // precision's first measurement does not hold up another's.
    static std::once_flag once[fp::kPrecisionCount];
    static double cache[fp::kPrecisionCount];
    const auto idx = static_cast<std::size_t>(p);
    std::call_once(once[idx], [&] {
        SmConfig config;
        config.precision = p;
        WarpProgram prog;
        prog.instructions = 128;
        cache[idx] =
            measureControlAvf(config, prog, 1500, 17).avfDue();
    });
    return cache[idx];
}

/** Dependent-chain (latency-bound) micro kernels bypass the
 *  throughput model. */
bool
isMicro(const std::string &name)
{
    return name.rfind("micro-", 0) == 0;
}

} // namespace

double
gpuTimeSeconds(Workload &w, const fault::GoldenRun &golden)
{
    const auto ops = static_cast<double>(golden.ops.totalOps());
    const Precision p = w.precision();
    if (isMicro(w.name())) {
        // 32 dependent chains run in parallel; wall time is the
        // per-thread chain latency.
        const double per_thread = ops / 32.0 / packFactor(p);
        return per_thread * opLatencyCycles(p) * packFactor(p) /
               kClockHz;
    }
    const double issued = ops / packFactor(p);
    const double eff = throughputEfficiency(w.name(), p);
    return issued / (activeCores(p) * kClockHz * eff);
}

arch::DeviceEvaluation
evaluateGpu(Workload &w, const arch::DeviceOptions &options)
{
    arch::DeviceEvaluation eval;
    eval.precision = w.precision();
    const workloads::KernelDesc desc = w.desc();
    const Precision p = w.precision();
    const auto golden = arch::deviceGoldenRun(w);

    // Functional-unit strikes (beam-like AVF + TRE corpus).
    arch::runDeviceCampaign(eval, w, fault::CampaignKind::Datapath,
                            options.seed, options);

    // Data residing in caches / registers awaiting use; the Titan V
    // has no ECC (the paper triplicates only the HBM2 contents).
    arch::runDeviceCampaign(eval, w, fault::CampaignKind::Memory,
                            options.seed + 1, options);

    // --- Exposure inventory ---------------------------------------
    const double fu_bits =
        static_cast<double>(activeCores(p)) *
        mixDatapathBitsPerCore(golden->ops, p);

    double footprint_bits = 0.0;
    for (const auto &view : w.buffers())
        footprint_bits += static_cast<double>(view.bits());
    const double mem_bits =
        footprint_bits * kResidencyScale /
        std::max(desc.arithmeticIntensity, kResidencyScale);

    // Control exposure scales with branch density; slower precisions
    // keep the sequencers occupied longer per instruction, which is
    // why the paper sees ~2x double-vs-half DUE on the FMA-dominated
    // codes (Section 6.1). opLatency/8 is that occupancy proxy
    // (1.0 double, 0.5 single, 0.375 half).
    const double time_now = gpuTimeSeconds(w, *golden);
    const double control_bits =
        kSmCount * kSmControlBits * (0.1 + 25.0 * desc.branchDensity);
    const double due_prob =
        controlDueAvf(p) * (0.5 + 0.5 * opLatencyCycles(p) / 8.0);

    eval.inventory.node = beam::Node::Gpu12nm;
    eval.inventory.entries = {
        {"fu-datapath", beam::BitClass::DatapathLatch, fu_bits,
         eval.datapathCampaign.avfSdc(),
         eval.datapathCampaign.avfDue()},
        {"cache-resident-data", beam::BitClass::SramData, mem_bits,
         eval.memoryCampaign.avfSdc(), eval.memoryCampaign.avfDue()},
        {"sm-control", beam::BitClass::ControlLatch, control_bits,
         0.0, due_prob},
    };
    eval.timeSeconds = time_now;
    eval.mebf =
        metrics::mebf(eval.fitSdc() + eval.fitDue(), eval.timeSeconds);
    return eval;
}

} // namespace mparch::gpu

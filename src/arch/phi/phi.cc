#include "arch/phi/phi.hh"

#include <algorithm>
#include <cmath>

#include "arch/phi/params.hh"
#include "metrics/metrics.hh"

namespace mparch::phi {

using workloads::Workload;

namespace {

/** Sustained stream bandwidth for one core's share, bytes/s. */
constexpr double kStreamBandwidth = 6e9;

/** Compute-pipe efficiency (issue stalls, in-order hazards). */
constexpr double kComputeEfficiency = 0.85;

} // namespace

double
phiTimeSeconds(Workload &w, const fault::GoldenRun &golden)
{
    const workloads::KernelDesc desc = w.desc();
    const fp::Precision p = w.precision();
    const auto ops = static_cast<double>(golden.ops.totalOps());
    const double elem_bytes = fp::formatOf(p).totalBits / 8.0;

    const double compute =
        ops / (lanes(p) * kClockHz * kComputeEfficiency);
    const double bytes = ops * elem_bytes /
                         std::max(desc.arithmeticIntensity, 1e-3);
    const double mem =
        bytes / (kStreamBandwidth *
                 prefetchEfficiency(p, desc.arithmeticIntensity,
                                    desc.regularAccess));
    return kSerialOverhead + compute + mem;
}

arch::DeviceEvaluation
evaluatePhi(Workload &w, const arch::DeviceOptions &options)
{
    if (!implementsPrecision(w.precision()))
        panic("KNC does not implement ",
              fp::precisionName(w.precision()), " precision");
    arch::DeviceEvaluation eval;
    const CompiledKernel compiled =
        compileKernel(w.desc(), w.precision());
    const auto golden = arch::deviceGoldenRun(w, options);

    // PVF: CAROL-FI protocol — single bit flip in a random program
    // variable at a random instant (Figure 7).
    arch::runDeviceCampaign(eval, w, fault::CampaignKind::Memory,
                            options.seed, options);

    // Functional-unit strikes: what the beam actually hits in the
    // unprotected datapath; its corpus also drives the TRE analysis
    // (Figure 8).
    arch::runDeviceCampaign(eval, w, fault::CampaignKind::Datapath,
                            options.seed + 1, options);

    // Exposure inventory. ECC-protected structures (register file,
    // caches) are absent: MCA corrects them (Section 3.1).
    const workloads::KernelDesc desc = w.desc();
    const double datapath_bits =
        static_cast<double>(kCores) * compiled.vectorRegisters *
        kUnprotectedBitsPerReg;
    const double control_bits =
        static_cast<double>(kCores) *
        (compiled.simdLanes * kControlBitsPerLane + kControlBitsFixed);
    const double due_prob =
        kControlDueFactor * (1.0 + 8.0 * desc.branchDensity);

    eval.inventory.node = beam::Node::Phi22nm;
    eval.inventory.entries = {
        {"vpu-datapath", beam::BitClass::DatapathLatch, datapath_bits,
         eval.datapathCampaign.avfSdc(),
         eval.datapathCampaign.avfDue()},
        {"lane-control", beam::BitClass::ControlLatch, control_bits,
         0.0, due_prob},
    };
    eval.fitSdc = eval.inventory.fitSdc();
    eval.fitDue = eval.inventory.fitDue();
    eval.timeSeconds = phiTimeSeconds(w, *golden);
    eval.mebf =
        metrics::mebf(eval.fitSdc + eval.fitDue, eval.timeSeconds);
    return eval;
}

} // namespace mparch::phi

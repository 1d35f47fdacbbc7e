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

PhiEvaluation
evaluatePhi(Workload &w, const PhiOptions &options)
{
    MPARCH_ASSERT(w.precision() == fp::Precision::Double ||
                      w.precision() == fp::Precision::Single,
                  "KNC does not implement half precision");
    PhiEvaluation eval;
    eval.compiled = compileKernel(w.desc(), w.precision());

    // PVF: CAROL-FI protocol — single bit flip in a random program
    // variable at a random instant (Figure 7).
    fault::CampaignConfig pvf;
    pvf.trials = options.pvfTrials;
    pvf.seed = options.seed;
    const auto golden =
        fault::goldenRunFor(w, pvf.inputSeed, options.supervisor);
    const auto pvf_run = fault::runSupervisedCampaign(
        w, fault::CampaignKind::Memory, pvf, options.supervisor);
    fault::requireAccepted(pvf_run, w, fault::CampaignKind::Memory);
    eval.pvfCampaign = pvf_run.result;

    // Functional-unit strikes: what the beam actually hits in the
    // unprotected datapath; its corpus also drives the TRE analysis
    // (Figure 8).
    fault::CampaignConfig dp;
    dp.trials = options.datapathTrials;
    dp.seed = options.seed + 1;
    const auto dp_run = fault::runSupervisedCampaign(
        w, fault::CampaignKind::Datapath, dp, options.supervisor);
    fault::requireAccepted(dp_run, w, fault::CampaignKind::Datapath);
    eval.datapathCampaign = dp_run.result;
    eval.coverage = std::min(pvf_run.coverage(), dp_run.coverage());
    eval.poisoned = pvf_run.poisoned + dp_run.poisoned;

    // Exposure inventory. ECC-protected structures (register file,
    // caches) are absent: MCA corrects them (Section 3.1).
    const workloads::KernelDesc desc = w.desc();
    const double datapath_bits =
        static_cast<double>(kCores) * eval.compiled.vectorRegisters *
        kUnprotectedBitsPerReg;
    const double control_bits =
        static_cast<double>(kCores) *
        (eval.compiled.simdLanes * kControlBitsPerLane +
         kControlBitsFixed);
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

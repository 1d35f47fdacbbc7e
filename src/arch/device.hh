/**
 * @file
 * The contract every device model implements.
 *
 * The paper computes FIT the same way on all three devices (Sections
 * 4-6): exposed bits x the probability that an upset propagates. Two
 * injection campaigns measure that probability against one golden
 * run: a functional-unit (FPGA: configuration-memory) campaign and a
 * memory (Phi: PVF) campaign. Their AVFs fill the device's exposure
 * inventory, which yields SDC/DUE FIT; the modelled execution time
 * turns FIT into MEBF.
 */

#ifndef MPARCH_ARCH_DEVICE_HH
#define MPARCH_ARCH_DEVICE_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "beam/inventory.hh"
#include "fault/campaign.hh"
#include "fault/supervisor.hh"
#include "workloads/workload.hh"

namespace mparch::arch {

/** Evaluation knobs shared by the device models. */
struct DeviceOptions
{
    /** Trials of the functional-unit (FPGA: config-memory)
     *  campaign. */
    std::uint64_t datapathTrials = 0;

    /** Trials of the memory (Phi: PVF) campaign. */
    std::uint64_t memoryTrials = 0;

    /** Campaign seed; each device derives its two campaign seeds
     *  from it. */
    std::uint64_t seed = 0;

    /** Crash-safety knobs (journal dir, resume, batching). */
    fault::SupervisorConfig supervisor;
};

/** Full reliability evaluation of one (workload, precision): the
 *  campaigns' tallies, the datapath SDC corpus, the exposure
 *  inventory they fill and the modelled time. A study's rows are
 *  these records. */
struct DeviceEvaluation
{
    /** Precision of the evaluated workload. */
    fp::Precision precision = fp::Precision::Double;

    /** Functional-unit strikes (FPGA: persistent config-memory
     *  upsets); the beam-like AVF and the TRE corpus. */
    fault::CampaignResult datapathCampaign;

    /** Memory-resident data (FPGA: BRAM content; Phi: CAROL-FI
     *  variable injection, the PVF). Tallies only: its AVFs fill the
     *  inventory and no figure reads its deviations, so its SDC
     *  corpus is not kept (it would only grow the study memo). */
    fault::CampaignResult memoryCampaign;

    /** Exposure inventory with the measured AVFs filled in. */
    beam::ResourceInventory inventory;

    double fitSdc() const { return inventory.fitSdc(); }  ///< a.u.
    double fitDue() const { return inventory.fitDue(); }  ///< a.u.

    double timeSeconds = 0.0;  ///< modelled execution time
    double mebf = 0.0;         ///< a.u.

    /** Minimum completed fraction over the campaigns. */
    double coverage = 1.0;

    /** Trials abandoned by the supervisor across the campaigns. */
    std::uint64_t poisoned = 0;
};

/** The golden run the device's campaigns classify against (same
 *  input seed as runDeviceCampaign's); models take their op counts
 *  from it. */
inline std::shared_ptr<const fault::GoldenRun>
deviceGoldenRun(workloads::Workload &w)
{
    return fault::goldenRunFor(w, fault::CampaignConfig{}.inputSeed);
}

/**
 * Run one of @p eval's two campaigns with fault-sampling seed
 * @p seed: a Memory campaign fills memoryCampaign's tallies with
 * memoryTrials trials, any other kind fills datapathCampaign with
 * datapathTrials.
 * A refused campaign is fatal; coverage (minimum) and poisoned
 * trials (sum) fold into @p eval.
 */
inline void
runDeviceCampaign(DeviceEvaluation &eval, workloads::Workload &w,
                  fault::CampaignKind kind, std::uint64_t seed,
                  const DeviceOptions &options,
                  const std::vector<fault::EngineAllocation> &engines = {})
{
    const bool memory = kind == fault::CampaignKind::Memory;
    fault::CampaignConfig config;
    config.trials =
        memory ? options.memoryTrials : options.datapathTrials;
    config.seed = seed;
    const auto run = fault::runSupervisedCampaign(
        w, kind, config, options.supervisor, fp::OpKind::NumKinds,
        engines);
    fault::requireAccepted(run, w, kind);
    fault::CampaignResult &result =
        memory ? eval.memoryCampaign : eval.datapathCampaign;
    result = run.result;
    if (memory)
        result.corpus = std::vector<fault::SdcRecord>();
    eval.coverage = std::min(eval.coverage, run.coverage());
    eval.poisoned += run.poisoned;
}

} // namespace mparch::arch

#endif // MPARCH_ARCH_DEVICE_HH

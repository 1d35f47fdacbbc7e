/**
 * @file
 * Internal glue for the experiment definition files.
 *
 * Each experiments_*.cc file contributes one block of registry
 * entries; this header declares the add* hooks registry.cc calls
 * plus the small shared helpers (study/campaign execution honouring
 * the RunContext) that keep the definitions declarative.
 */

#ifndef MPARCH_REPORT_EXPERIMENTS_HH
#define MPARCH_REPORT_EXPERIMENTS_HH

#include "core/study.hh"
#include "fault/campaign.hh"
#include "fault/supervisor.hh"
#include "report/registry.hh"

namespace mparch::report {

void addFpgaExperiments(std::vector<Experiment> &out);
void addPhiExperiments(std::vector<Experiment> &out);
void addGpuExperiments(std::vector<Experiment> &out);
void addAblationExperiments(std::vector<Experiment> &out);
void addExtensionExperiments(std::vector<Experiment> &out);

/** The input seed of every registry campaign (CampaignConfig's
 *  default); golden runs read for op counts use it too. */
inline constexpr std::uint64_t kInputSeed =
    fault::CampaignConfig{}.inputSeed;

/** std::string form of a precision name (cell convenience). */
std::string precisionLabel(fp::Precision p);

/**
 * Run a full reliability study for one experiment, with the
 * context's trials/scale/jobs applied and progress on stderr.
 */
core::StudyResult
runStudyFor(core::Architecture arch, const std::string &workload,
            const Experiment &experiment, const RunContext &ctx,
            std::vector<fp::Precision> precisions = {});

/** Supervisor knobs for a direct (non-study) campaign: the
 *  context's worker threads. */
fault::SupervisorConfig reportSupervisor(const RunContext &ctx);

/**
 * Run one campaign with the context's worker threads; a refused
 * campaign is fatal.
 */
fault::CampaignResult
runReportCampaign(workloads::Workload &w, fault::CampaignKind kind,
                  const fault::CampaignConfig &config,
                  const RunContext &ctx,
                  fp::OpKind kind_filter = fp::OpKind::NumKinds,
                  const std::vector<fault::EngineAllocation> &engines =
                      {});

} // namespace mparch::report

#endif // MPARCH_REPORT_EXPERIMENTS_HH

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
void addEngineExperiments(std::vector<Experiment> &out);

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

/** Supervisor knobs for a direct (non-study) campaign: parallel
 *  trial execution plus the process-wide golden-run cache. */
fault::SupervisorConfig reportSupervisor(const RunContext &ctx,
                                         double scale);

/**
 * Run one campaign with the context's worker threads and the
 * golden-run cache (a default SupervisorConfig runs serially without
 * the cache); a refused campaign is fatal.
 */
fault::CampaignResult
runReportCampaign(workloads::Workload &w, fault::CampaignKind kind,
                  const fault::CampaignConfig &config,
                  const RunContext &ctx, double scale,
                  fp::OpKind kind_filter = fp::OpKind::NumKinds,
                  const std::vector<fault::EngineAllocation> &engines =
                      {});

/** Golden run shared through the process-wide cache. */
std::shared_ptr<const fault::GoldenRun>
reportGoldenRun(workloads::Workload &w, double scale,
                std::uint64_t input_seed = 99);

} // namespace mparch::report

#endif // MPARCH_REPORT_EXPERIMENTS_HH

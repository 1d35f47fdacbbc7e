#include "report/experiments.hh"

#include <cstdio>

#include "nn/nn_workloads.hh"

namespace mparch::report {

std::string
precisionLabel(fp::Precision p)
{
    return std::string(fp::precisionName(p));
}

core::StudyResult
runStudyFor(core::Architecture arch, const std::string &workload,
            const Experiment &experiment, const RunContext &ctx,
            std::vector<fp::Precision> precisions)
{
    core::StudyConfig config;
    config.arch = arch;
    config.workload = workload;
    config.trials = experiment.trialsFor(ctx);
    config.scale = experiment.scaleFor(ctx);
    config.precisions = std::move(precisions);
    config.jobs = ctx.jobs;
    if (ctx.progress) {
        std::fprintf(stderr, "[%s] %s/%s: running campaigns...\n",
                     experiment.id.c_str(),
                     core::architectureName(arch), workload.c_str());
    }
    return core::runStudy(config);
}

fault::SupervisorConfig
reportSupervisor(const RunContext &ctx)
{
    fault::SupervisorConfig supervisor;
    supervisor.jobs = ctx.jobs;
    return supervisor;
}

fault::CampaignResult
runReportCampaign(workloads::Workload &w, fault::CampaignKind kind,
                  const fault::CampaignConfig &config,
                  const RunContext &ctx, fp::OpKind kind_filter,
                  const std::vector<fault::EngineAllocation> &engines)
{
    const auto supervised = fault::runSupervisedCampaign(
        w, kind, config, reportSupervisor(ctx), kind_filter, engines);
    fault::requireAccepted(supervised, w, kind);
    return supervised.result;
}

} // namespace mparch::report

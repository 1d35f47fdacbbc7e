#include "core/study.hh"

#include <tuple>

#include "arch/fpga/fpga.hh"
#include "arch/gpu/gpu.hh"
#include "arch/phi/phi.hh"
#include "common/memo.hh"
#include "fault/supervisor.hh"
#include "nn/nn_workloads.hh"

namespace mparch::core {

const char *
architectureName(Architecture arch)
{
    switch (arch) {
      case Architecture::Fpga:    return "fpga";
      case Architecture::XeonPhi: return "xeon-phi";
      case Architecture::Gpu:     return "gpu";
    }
    return "?";
}

std::optional<Architecture>
parseArchitecture(std::string_view name)
{
    for (Architecture arch : {Architecture::Fpga, Architecture::XeonPhi,
                              Architecture::Gpu})
        if (architectureName(arch) == name)
            return arch;
    return std::nullopt;
}

bool
supportsPrecision(Architecture arch, fp::Precision p)
{
    return arch != Architecture::XeonPhi || phi::implementsPrecision(p);
}

std::vector<fp::Precision>
supportedPrecisions(Architecture arch)
{
    std::vector<fp::Precision> out;
    for (fp::Precision p : fp::paperPrecisions)
        if (supportsPrecision(arch, p))
            out.push_back(p);
    return out;
}

const arch::DeviceEvaluation *
StudyResult::find(fp::Precision p) const
{
    for (const auto &row : rows)
        if (row.precision == p)
            return &row;
    return nullptr;
}

namespace {

/** Crash-safety knobs forwarded into every campaign. Journals land
 *  under <journalDir>/<arch> so studies of different devices never
 *  collide on journal names. */
fault::SupervisorConfig
makeSupervisor(const StudyConfig &config)
{
    fault::SupervisorConfig supervisor;
    if (!config.journalDir.empty())
        supervisor.journalDir =
            config.journalDir + "/" + architectureName(config.arch);
    supervisor.resume = config.resume;
    supervisor.batchSize = config.batchSize;
    supervisor.jobs = config.jobs;
    // Ctrl-C on a journaled study flushes and prints a resume hint.
    supervisor.handleSignals = !supervisor.journalDir.empty();
    return supervisor;
}

arch::DeviceEvaluation
evaluateOne(const StudyConfig &config, fp::Precision p)
{
    auto w = nn::makeAnyWorkload(config.workload, p, config.scale);
    arch::DeviceOptions options;
    options.datapathTrials = config.trials;
    options.memoryTrials = config.trials / 2 + 1;
    options.seed = config.seed;
    options.supervisor = makeSupervisor(config);
    switch (config.arch) {
      case Architecture::Fpga:
        return fpga::evaluateFpga(*w, options);
      case Architecture::XeonPhi:
        options.memoryTrials = config.trials;
        return phi::evaluatePhi(*w, options);
      case Architecture::Gpu:
        return gpu::evaluateGpu(*w, options);
    }
    panic("unknown architecture");
}

/** Everything an un-journaled study's rows depend on. `jobs` is
 *  not part of it: results are bit-identical at every job count. */
using StudyKey = std::tuple<Architecture, std::string,
                            std::vector<fp::Precision>, double,
                            std::uint64_t, std::uint64_t>;

/** Un-journaled studies, computed once per key (single-flight) until
 *  the next common::clearMemos(). */
common::Memo<StudyKey, std::vector<arch::DeviceEvaluation>> g_studies;

} // namespace

StudyResult
runStudy(const StudyConfig &config)
{
    StudyResult result;
    result.config = config;
    std::vector<fp::Precision> precisions = config.precisions;
    if (precisions.empty())
        precisions = supportedPrecisions(config.arch);
    const auto compute = [&] {
        std::vector<arch::DeviceEvaluation> rows;
        for (fp::Precision p : precisions)
            rows.push_back(evaluateOne(config, p));
        return rows;
    };
    // A journaled study (resumed or not) must write its journals.
    if (!config.journalDir.empty())
        result.rows = compute();
    else
        result.rows = *g_studies.get(
            StudyKey{config.arch, config.workload, precisions,
                     config.scale, config.trials, config.seed},
            compute);
    return result;
}

} // namespace mparch::core

/**
 * @file
 * Registry entry for the campaign-engine throughput benchmark. Not a
 * paper target: it validates the parallel executor's contract
 * (identical tallies at every job count) and measures its speedup.
 */

#include <chrono>

#include "arch/fpga/fpga.hh"
#include "common/parallel.hh"
#include "fault/campaign.hh"
#include "fault/supervisor.hh"
#include "report/experiments.hh"
#include "workloads/workload.hh"

namespace mparch::report {

namespace {

double
seconds(std::chrono::steady_clock::time_point begin,
        std::chrono::steady_clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** Tallies equal (the corpus makes the check order-sensitive). */
bool
sameResult(const fault::CampaignResult &a,
           const fault::CampaignResult &b)
{
    if (a.trials != b.trials || a.masked != b.masked ||
        a.sdc != b.sdc || a.due != b.due ||
        a.detected != b.detected ||
        a.corpus.size() != b.corpus.size())
        return false;
    for (std::size_t i = 0; i < a.corpus.size(); ++i)
        if (a.corpus[i].maxRel != b.corpus[i].maxRel)
            return false;
    return true;
}

Experiment
benchCampaignThroughput()
{
    Experiment e;
    e.id = "bench_campaign_throughput";
    e.paperRef = "-";
    e.kind = ExperimentKind::Engine;
    e.title = "Campaign throughput: serial loop vs thread-pooled "
              "executor";
    e.shapeTarget = "identical tallies at every job count; speedup "
                    "bounded by physical cores";
    e.defaultTrials = 400;
    e.defaultScale = 0.15;
    e.run = [](const Experiment &self, const RunContext &ctx) {
        ResultDoc doc;
        const double scale = self.scaleFor(ctx);
        fault::CampaignConfig config;
        config.trials = self.trialsFor(ctx);
        config.seed = 29;
        const unsigned jobs =
            parallel::resolveJobs(ctx.jobs, config.trials);

        auto w = workloads::makeWorkload(
            "mxm", fp::Precision::Single, scale);
        const fault::GoldenRun golden(*w, config.inputSeed);
        const auto circuit = fpga::synthesize(*w, golden);

        struct KindResult
        {
            std::string kind;
            double serialSeconds = 0.0;
            double parallelSeconds = 0.0;
            bool identical = false;
        };
        const auto benchKind =
            [&](fault::CampaignKind kind, const std::string &label,
                const std::vector<fault::EngineAllocation>
                    &engines) {
                KindResult out;
                out.kind = label;
                fault::SupervisorConfig serial;
                serial.jobs = 1;
                fault::SupervisorConfig parallel_cfg;
                parallel_cfg.jobs = jobs;
                const auto t0 = std::chrono::steady_clock::now();
                const auto a = fault::runSupervisedCampaign(
                    *w, kind, config, serial, fp::OpKind::NumKinds,
                    engines);
                const auto t1 = std::chrono::steady_clock::now();
                const auto b = fault::runSupervisedCampaign(
                    *w, kind, config, parallel_cfg,
                    fp::OpKind::NumKinds, engines);
                const auto t2 = std::chrono::steady_clock::now();
                out.serialSeconds = seconds(t0, t1);
                out.parallelSeconds = seconds(t1, t2);
                out.identical = sameResult(a.result, b.result);
                return out;
            };

        std::vector<KindResult> rows;
        rows.push_back(
            benchKind(fault::CampaignKind::Memory, "memory", {}));
        rows.push_back(benchKind(fault::CampaignKind::Datapath,
                                 "datapath", {}));
        rows.push_back(benchKind(fault::CampaignKind::Persistent,
                                 "persistent", circuit.engines));

        auto &table = doc.addTable(
            "main",
            {"campaign", "trials", "serial-trials/s",
             "jobs=" + std::to_string(jobs) + "-trials/s",
             "speedup", "identical"});
        const double trials =
            static_cast<double>(config.trials);
        for (const auto &row : rows) {
            table.row()
                .cell(row.kind)
                .cell({trials, 0})
                .cell({trials / row.serialSeconds, 1})
                .cell({trials / row.parallelSeconds, 1})
                .cell({row.serialSeconds / row.parallelSeconds, 2})
                .cell(row.identical ? "yes" : "NO");
        }
        doc.notes.push_back(
            "speedup scales with physical cores (" +
            std::to_string(parallel::hardwareJobs()) +
            " here); on a single-core host the parallel leg "
            "measures pure executor overhead (~1x)");
        return doc;
    };
    e.checks = {
        custom("tallies-identical",
               "the serial and thread-pooled runs produce "
               "bit-identical tallies for every campaign kind",
               [](const ResultDoc &doc) {
                   CheckOutcome out;
                   const auto *table = doc.table("main");
                   out.pass = true;
                   for (std::size_t r = 0; r < table->rowCount();
                        ++r) {
                       const bool same =
                           table->at(r, "identical")->formatted() ==
                           "yes";
                       out.pass = out.pass && same;
                       if (!out.observed.empty())
                           out.observed += ", ";
                       out.observed +=
                           table->at(r, "campaign")->formatted() +
                           (same ? "=identical" : "=DIVERGED");
                   }
                   return out;
               }),
    };
    return e;
}

} // namespace

void
addEngineExperiments(std::vector<Experiment> &out)
{
    out.push_back(benchCampaignThroughput());
}

} // namespace mparch::report

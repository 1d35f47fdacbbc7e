#include "fault/supervisor.hh"

#include <cmath>
#include <csignal>
#include <filesystem>
#include <optional>
#include <sstream>

#include "common/parallel.hh"

namespace mparch::fault {

using workloads::Workload;

namespace {

/** Last signal delivered while a supervised campaign was running;
 *  never cleared, so later campaigns see it too. */
volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int sig)
{
    g_signal = sig;
}

/** Scoped SIGINT/SIGTERM handler installation. */
class SignalScope
{
  public:
    explicit SignalScope(bool install) : installed_(install)
    {
        if (!installed_)
            return;
        previousInt_ = std::signal(SIGINT, onSignal);
        previousTerm_ = std::signal(SIGTERM, onSignal);
    }

    ~SignalScope()
    {
        if (!installed_)
            return;
        std::signal(SIGINT, previousInt_);
        std::signal(SIGTERM, previousTerm_);
    }

    bool
    fired() const
    {
        return installed_ && g_signal != 0;
    }

  private:
    bool installed_;
    void (*previousInt_)(int) = SIG_DFL;
    void (*previousTerm_)(int) = SIG_DFL;
};

void
bumpFailure(SupervisedCampaign &run, TrialFailure failure)
{
    ++run.failureCounts[static_cast<std::size_t>(failure)];
}

/** True when any golden output element decodes to inf/NaN. */
bool
goldenIsNonFinite(Workload &w, const GoldenRun &golden)
{
    const fp::Format f = fp::formatOf(w.output().precision);
    for (std::uint64_t bits : golden.outputBits) {
        if (!std::isfinite(fp::fpToDouble(f, bits)))
            return true;
    }
    return false;
}

/**
 * Everything the supervisor needs to know about one executed trial:
 * its outcome, or why it was poisoned. Produced by a worker and
 * folded into the campaign by commit() on the supervising thread,
 * strictly in index order.
 */
struct TrialCell
{
    std::uint64_t index = 0;
    std::optional<TrialOutcome> trial;  ///< empty when poisoned
    std::string error;                  ///< why, when poisoned
};

/**
 * Run one trial on @p w. A trial that throws, whatever it throws, is
 * poisoned (graceful degradation; the report carries the reduced
 * coverage): it is a pure function of (workload, seed, index), so
 * running it again would throw again.
 */
TrialCell
runSupervisedTrial(const TrialRunner &runner, Workload &w,
                   std::uint64_t index)
{
    TrialCell cell;
    cell.index = index;
    try {
        cell.trial = runner.runTrial(w, index);
    } catch (const std::exception &e) {
        cell.error = e.what();
    } catch (...) {
        cell.error = "non-standard exception";
    }
    return cell;
}

/** The journal file @p supervisor names for this campaign: its
 *  journalPath, or a name derived under journalDir (created here). */
std::string
journalPathFor(const Workload &w, CampaignKind kind,
               const SupervisorConfig &supervisor)
{
    if (!supervisor.journalPath.empty() || supervisor.journalDir.empty())
        return supervisor.journalPath;
    std::error_code ec;
    std::filesystem::create_directories(supervisor.journalDir, ec);
    std::ostringstream name;
    name << w.name() << "-" << fp::precisionName(w.precision()) << "-"
         << campaignKindName(kind) << ".mpj";
    return (std::filesystem::path(supervisor.journalDir) / name.str())
        .string();
}

} // namespace

SupervisedCampaign
runSupervisedCampaign(Workload &w, CampaignKind kind,
                      const CampaignConfig &config,
                      const SupervisorConfig &supervisor,
                      fp::OpKind kind_filter,
                      const std::vector<EngineAllocation> &engines)
{
    SupervisedCampaign run;
    run.planned = config.trials;
    run.journalPath = journalPathFor(w, kind, supervisor);
    const std::string &journalPath = run.journalPath;

    // Golden reference + sampling tables.
    const auto runner = makeTrialRunner(
        w, kind, config, kind_filter, engines,
        goldenRunFor(w, config.inputSeed));
    if (goldenIsNonFinite(w, runner->golden())) {
        bumpFailure(run, TrialFailure::NonFiniteGolden);
        run.error =
            "golden run produced non-finite output; deviation-based "
            "classification is meaningless (check workload inputs)";
        return run;
    }

    JournalHeader header{
        .kind = kind,
        .workload = w.name(),
        .precision = w.precision(),
        .config = config,
        .kindFilter = kind_filter,
        .engines = engines,
        .goldenFingerprint = goldenFingerprint(runner->golden())};
    // The factory scale replay rebuilds the workload at; a hand-built
    // workload has none, and records the default.
    if (const auto *identity = w.identity())
        header.scale = identity->scale;

    // Resume: load completed trials and validate provenance.
    std::vector<bool> done;
    bool append = false;
    if (supervisor.resume && !journalPath.empty() &&
        std::filesystem::exists(journalPath)) {
        std::string why;
        const auto journal = readJournal(journalPath, &why);
        if (journal)
            why = journal->header.mismatch(header);
        if (!why.empty()) {
            run.error = "refusing to resume from '" +
                        journalPath + "': " + why;
            return run;
        }
        // readJournal holds the indices below trials and rising.
        done.assign(config.trials, false);
        for (const auto &rec : journal->records) {
            done[rec.index] = true;
            accumulate(run.result, rec);
        }
        run.resumed = journal->records.size();
        // Cut any torn tail (a record half-written when the previous
        // process died) so appended records start on a fresh line.
        std::error_code ec;
        const auto size = std::filesystem::file_size(journalPath, ec);
        if (!ec && journal->validBytes < size) {
            std::filesystem::resize_file(journalPath,
                                         journal->validBytes, ec);
        }
        append = true;
    }

    // Journal writer (fresh header unless appending after resume).
    std::unique_ptr<JournalWriter> writer;
    if (!journalPath.empty()) {
        writer = std::make_unique<JournalWriter>(
            journalPath, header, supervisor.batchSize,
            /*truncate=*/!append);
        if (!writer->ok()) {
            bumpFailure(run, TrialFailure::JournalIo);
            warn("cannot write journal '", journalPath,
                 "'; continuing without crash safety");
            writer.reset();
        }
    }

    SignalScope signals(supervisor.handleSignals);
    const auto stopping = [&] {
        return signals.fired() ||
               (supervisor.shouldStop && supervisor.shouldStop());
    };

    // Indices this run still has to execute, in order.
    std::vector<std::uint64_t> pending;
    pending.reserve(run.planned - run.resumed);
    for (std::uint64_t i = 0; i < run.planned; ++i) {
        if (done.empty() || !done[i])
            pending.push_back(i);
    }
    run.result.corpus.reserve(run.result.corpus.size() +
                              pending.size());
    if (config.recordAnatomy) {
        run.result.anatomy.reserve(run.result.anatomy.size() +
                                   pending.size());
    }

    // Fold one finished trial into the campaign: poison
    // bookkeeping, tallies, journal. Called strictly in index order
    // on this thread, so serial and parallel runs produce identical
    // journal bytes and CampaignResults.
    const auto commit = [&](const TrialCell &cell) {
        if (!cell.trial) {
            bumpFailure(run, TrialFailure::WorkloadException);
            warn("trial ", cell.index, " poisoned: ", cell.error);
            ++run.poisoned;
            return;
        }
        if (cell.trial->outcome == OutcomeKind::Due)
            bumpFailure(run, TrialFailure::HangWatchdog);

        accumulate(run.result, *cell.trial);
        if (writer) {
            writer->append(makeTrialRecord(cell.index, *cell.trial));
            if (!writer->ok()) {
                bumpFailure(run, TrialFailure::JournalIo);
                warn("journal write to '", journalPath,
                     "' failed; continuing without crash safety");
                writer.reset();
            }
        }
    };

    // Workers run trials of the shared runner on their own workload
    // clone (w itself at jobs 1); this thread commits them in index
    // order. Counter-based trial RNG makes every trial independent of
    // execution order, so the result is the same at any jobs.
    const unsigned jobs =
        parallel::resolveJobs(supervisor.jobs, pending.size());
    // Clones are built up front, on this thread, so construction
    // failures surface before any worker starts.
    std::vector<workloads::WorkloadPtr> clones;
    if (jobs > 1) {
        clones.reserve(jobs);
        for (unsigned j = 0; j < jobs; ++j)
            clones.push_back(w.clone());
    }
    const std::uint64_t committed = parallel::forEachInOrder(
        pending.size(), jobs,
        [&](unsigned worker, std::uint64_t pos) {
            return runSupervisedTrial(
                *runner, clones.empty() ? w : *clones[worker],
                pending[pos]);
        },
        [&](std::uint64_t, const TrialCell &cell) { commit(cell); },
        stopping);
    run.interrupted = committed < pending.size();

    if (writer)
        writer->flush();
    if (run.interrupted) {
        std::ostringstream os;
        os << "campaign interrupted after " << run.result.trials
           << "/" << run.planned << " trials";
        if (writer && writer->ok()) {
            os << "; journal flushed to '" << journalPath
               << "' — re-run with --resume to continue";
        }
        inform(os.str());
    }
    return run;
}

void
requireAccepted(const SupervisedCampaign &run, const Workload &w,
                CampaignKind kind)
{
    if (!run.error.empty())
        fatal(campaignKindName(kind), " campaign on ", w.name(), "/",
              fp::precisionName(w.precision()), " refused: ",
              run.error);
}

ReplayResult
replayTrial(Workload &w, const Journal &journal, std::uint64_t index)
{
    ReplayResult replay;
    const JournalHeader &h = journal.header;
    if (index >= h.config.trials) {
        replay.error = "trial index out of range";
        return replay;
    }
    const auto *identity = w.identity();
    if (h.workload != w.name() || h.precision != w.precision() ||
        (identity && identity->scale != h.scale)) {
        replay.error = "workload does not match the journal header";
        return replay;
    }

    // A header kind filter is checked against the golden run: one
    // that selects no op could not build a datapath runner.
    auto golden = goldenRunFor(w, h.config.inputSeed);
    if (h.kind == CampaignKind::Datapath &&
        datapathTargets(golden->ops, h.kindFilter) == 0) {
        replay.error = "bad kind-filter '" +
                       std::to_string(static_cast<int>(h.kindFilter)) +
                       "': the golden run has no op of that kind to "
                       "strike";
        return replay;
    }

    const auto runner = makeTrialRunner(w, h.kind, h.config,
                                        h.kindFilter, h.engines,
                                        std::move(golden));
    JournalHeader rebuilt = h;
    rebuilt.goldenFingerprint = goldenFingerprint(runner->golden());
    if (rebuilt.goldenFingerprint != h.goldenFingerprint) {
        replay.error = h.mismatch(rebuilt);
        return replay;
    }

    replay.trial = runner->runTrial(index, /*describe=*/true);
    for (const auto &rec : journal.records) {
        if (rec.index != index)
            continue;
        replay.journaled = rec;
        replay.hasJournaled = true;
        replay.mismatch = firstDifferingColumn(
            rec, makeTrialRecord(index, replay.trial));
        replay.consistent = replay.mismatch.empty();
        break;
    }
    return replay;
}

} // namespace mparch::fault

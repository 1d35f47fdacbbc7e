#include "fault/supervisor.hh"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <sstream>

#include "common/parallel.hh"

namespace mparch::fault {

using workloads::Workload;

const char *
trialFailureName(TrialFailure failure)
{
    switch (failure) {
      case TrialFailure::HangWatchdog:      return "hang-watchdog";
      case TrialFailure::NonFiniteGolden:   return "non-finite-golden";
      case TrialFailure::WorkloadException: return "workload-exception";
      case TrialFailure::JournalIo:         return "journal-io-error";
      case TrialFailure::NumFailures:       break;
    }
    return "?";
}

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

JournalHeader
makeHeader(Workload &w, CampaignKind kind,
           const CampaignConfig &config,
           const SupervisorConfig &supervisor, fp::OpKind kind_filter,
           const std::vector<EngineAllocation> &engines,
           const GoldenRun &golden)
{
    JournalHeader header;
    header.kind = kind;
    header.workload = w.name();
    header.precision = w.precision();
    // The factory scale replay rebuilds the workload at; a hand-built
    // workload has none, and records the default.
    if (const auto *identity = w.identity())
        header.scale = identity->scale;
    header.config = config;
    header.kindFilter = kind_filter;
    header.engines = engines;
    header.shardCount = supervisor.shardCount;
    header.shardIndex = supervisor.shardIndex;
    header.goldenFingerprint = goldenFingerprint(golden);
    return header;
}

/**
 * Everything the supervisor needs to know about one executed trial:
 * the outcome plus the retry bookkeeping. Produced by workers (or
 * the serial loop) and folded into the campaign by commit() on the
 * supervising thread, strictly in index order.
 */
struct TrialCell
{
    std::uint64_t index = 0;
    TrialOutcome trial;
    int throws = 0;        ///< exceptions caught (== serial `attempts`)
    bool completed = false;
    std::string error;     ///< last exception message when poisoned
};

/**
 * Run one trial with bounded retry. A trial that keeps throwing is
 * poisoned and the campaign moves on (graceful degradation; the
 * report carries the reduced coverage).
 */
TrialCell
runSupervisedTrial(TrialRunner &runner, std::uint64_t index,
                   int max_retries)
{
    TrialCell cell;
    cell.index = index;
    for (;;) {
        try {
            cell.trial = runner.runTrial(index);
            cell.completed = true;
            return cell;
        } catch (const std::exception &e) {
            if (cell.throws++ >= max_retries) {
                cell.error = e.what();
                return cell;
            }
        } catch (...) {
            // Non-std exception: poison without retry, don't
            // terminate.
            cell.throws = max_retries + 1;
            cell.error = "non-standard exception";
            return cell;
        }
    }
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
         << campaignKindName(kind);
    if (supervisor.shardCount > 1)
        name << "-shard" << supervisor.shardIndex;
    name << ".mpj";
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
    const std::uint64_t shards = supervisor.shardCount;
    if (shards == 0) {
        run.error = "shard count must be at least 1";
        return run;
    }
    if (supervisor.shardIndex >= shards) {
        run.error = "shard index out of range";
        return run;
    }
    run.journalPath = journalPathFor(w, kind, supervisor);
    const std::string &journalPath = run.journalPath;
    for (std::uint64_t i = supervisor.shardIndex; i < config.trials;
         i += shards) {
        ++run.planned;
    }

    // Golden reference + sampling tables (also validates config).
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

    const JournalHeader header =
        makeHeader(w, kind, config, supervisor, kind_filter, engines,
                   runner->golden());

    // Resume: load completed trials and validate provenance.
    std::vector<bool> done;
    bool append = false;
    if (supervisor.resume && !journalPath.empty() &&
        std::filesystem::exists(journalPath)) {
        std::string why;
        const auto journal = readJournal(journalPath, &why);
        if (!journal) {
            run.error = "refusing to resume: " + why;
            return run;
        }
        why = journal->header.mismatch(header);
        if (!why.empty()) {
            run.error = "refusing to resume from '" +
                        journalPath + "': " + why;
            return run;
        }
        done.assign(config.trials, false);
        for (const auto &rec : journal->records) {
            if (rec.index >= config.trials || done[rec.index])
                continue;
            if (rec.index % shards != supervisor.shardIndex)
                continue;
            done[rec.index] = true;
            accumulate(run.result, rec);
            ++run.resumed;
        }
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
    for (std::uint64_t i = supervisor.shardIndex; i < config.trials;
         i += shards) {
        if (done.empty() || !done[i])
            pending.push_back(i);
    }
    run.result.corpus.reserve(run.result.corpus.size() +
                              pending.size());
    if (config.recordAnatomy) {
        run.result.anatomy.reserve(run.result.anatomy.size() +
                                   pending.size());
    }

    // Fold one finished trial into the campaign: retry/poison
    // bookkeeping, tallies, journal. Called strictly in index order
    // on this thread, so serial and parallel runs produce identical
    // journal bytes and CampaignResults.
    const auto commit = [&](const TrialCell &cell) {
        for (int t = 0; t < cell.throws; ++t)
            bumpFailure(run, TrialFailure::WorkloadException);
        if (!cell.completed) {
            if (cell.throws > 0)
                run.retried += static_cast<std::uint64_t>(
                    cell.throws - 1);
            warn("trial ", cell.index, " poisoned after ",
                 cell.throws, " attempts: ", cell.error);
            ++run.poisoned;
            return;
        }
        run.retried += static_cast<std::uint64_t>(cell.throws);
        if (cell.trial.outcome == OutcomeKind::Due)
            bumpFailure(run, TrialFailure::HangWatchdog);

        accumulate(run.result, cell.trial);
        if (writer) {
            writer->append(
                makeTrialRecord(cell.index, cell.trial, cell.throws));
            if (!writer->ok()) {
                bumpFailure(run, TrialFailure::JournalIo);
                warn("journal write to '", journalPath,
                     "' failed; continuing without crash safety");
                writer.reset();
            }
        }
    };

    const unsigned jobs =
        parallel::resolveJobs(supervisor.jobs, pending.size());
    if (jobs <= 1) {
        for (std::uint64_t index : pending) {
            if (stopping()) {
                run.interrupted = true;
                break;
            }
            commit(runSupervisedTrial(*runner, index,
                                      supervisor.maxRetries));
        }
    } else {
        // Parallel path: workers claim chunks of the pending list,
        // run trials on their own workload clone + runner fork, and
        // hand cells through a bounded reorder window; this thread
        // commits them in index order. Counter-based trial RNG makes
        // every trial independent of execution order, so the result
        // is bit-identical to the serial loop.
        const std::uint64_t chunk = std::clamp<std::uint64_t>(
            pending.size() / (static_cast<std::uint64_t>(jobs) * 4),
            1, 32);
        parallel::IndexChunker chunker(pending.size(), chunk);
        // A signal delivered before this campaign started (a study
        // stopping as a whole) must not let workers claim a chunk.
        if (signals.fired())
            chunker.stop();
        parallel::OrderedChannel<TrialCell> channel(
            std::max<std::size_t>(jobs * chunk * 4, 256), jobs);

        // Clones and forks are built up front, on this thread, so
        // construction failures surface before any worker starts.
        std::vector<workloads::WorkloadPtr> clones;
        std::vector<std::unique_ptr<TrialRunner>> forks;
        clones.reserve(jobs);
        forks.reserve(jobs);
        for (unsigned j = 0; j < jobs; ++j) {
            clones.push_back(w.clone());
            forks.push_back(runner->fork(*clones.back()));
        }

        parallel::ThreadPool pool(jobs);
        pool.start([&](unsigned worker) {
            TrialRunner &mine = *forks[worker];
            std::uint64_t begin = 0, end = 0;
            while (chunker.next(begin, end)) {
                for (std::uint64_t pos = begin; pos < end; ++pos) {
                    channel.put(pos, runSupervisedTrial(
                                         mine, pending[pos],
                                         supervisor.maxRetries));
                }
            }
            channel.producerDone();
        });

        std::size_t committed = 0;
        bool stopRequested = false;
        for (;;) {
            // Cooperative stop, honoured between commits: stop
            // handing out chunks; claimed chunks drain into the
            // window and are committed below.
            if (!stopRequested && stopping()) {
                stopRequested = true;
                chunker.stop();
            }
            auto cell = channel.take();
            if (!cell)
                break;
            commit(*cell);
            ++committed;
        }
        pool.wait();
        if (committed < pending.size())
            run.interrupted = true;
    }

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

    const auto runner = makeTrialRunner(w, h.kind, h.config,
                                        h.kindFilter, h.engines);
    if (goldenFingerprint(runner->golden()) != h.goldenFingerprint) {
        replay.error =
            "golden-run fingerprint mismatch: the workload, its "
            "inputs or the FP model changed since the journal was "
            "written";
        return replay;
    }

    replay.trial = runner->runTrial(index, /*describe=*/true);
    for (const auto &rec : journal.records) {
        if (rec.index != index)
            continue;
        replay.journaled = rec;
        replay.hasJournaled = true;
        replay.mismatch = firstDifferingColumn(
            rec, makeTrialRecord(index, replay.trial, rec.retries));
        replay.consistent = replay.mismatch.empty();
        break;
    }
    return replay;
}

} // namespace mparch::fault

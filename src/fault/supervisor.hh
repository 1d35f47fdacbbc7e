/**
 * @file
 * Crash-safe campaign supervisor.
 *
 * Wraps the three campaign kinds (memory / datapath / persistent)
 * with the machinery that makes production-scale runs survivable:
 *
 *  - counter-based per-trial RNG (common/rng.hh trialRng), so every
 *    trial is replayable standalone and runs agree exactly whatever
 *    order their trials execute in;
 *  - an append-only trial journal (fault/journal.hh) flushed in
 *    configurable batches — a killed process loses at most one
 *    batch of trials;
 *  - resume: an existing journal is validated against the current
 *    configuration and golden-run fingerprint (refusing to resume
 *    across mismatches), completed trials are skipped, and the
 *    campaign continues where it stopped;
 *  - a structured trial-failure taxonomy with graceful degradation:
 *    a trial that throws poisons itself, not the campaign, which
 *    completes and reports partial coverage;
 *  - SIGINT/SIGTERM-clean shutdown that flushes the journal and
 *    prints a resume hint.
 *
 * See docs/campaigns.md for the journal format and the operational
 * guide.
 */

#ifndef MPARCH_FAULT_SUPERVISOR_HH
#define MPARCH_FAULT_SUPERVISOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/journal.hh"

namespace mparch::fault {

/**
 * Why a trial (or the whole campaign) needed supervisor attention.
 *
 *  - HangWatchdog: the tick watchdog aborted the trial; classified
 *    as a DUE (it *is* a campaign outcome), counted here so hangs
 *    are visible separately in reports.
 *  - NonFiniteGolden: the fault-free reference output contains
 *    inf/NaN, so deviation-based classification is meaningless; the
 *    campaign refuses to run (campaign-level, not per-trial).
 *  - WorkloadException: Workload::execute()/reset() threw; the
 *    trial is poisoned on that first throw.
 *  - JournalIo: appending or flushing the journal failed; journaling
 *    is disabled and the campaign continues in memory.
 */
enum class TrialFailure
{
    HangWatchdog,
    NonFiniteGolden,
    WorkloadException,
    JournalIo,
    NumFailures,
};

/** Supervisor knobs, separate from the campaign's physics knobs. */
struct SupervisorConfig
{
    /** Journal file. Empty: derive from journalDir, or run without
     *  a journal when that is empty too. */
    std::string journalPath;

    /** Directory for derived journal file names
     *  (<workload>-<precision>-<kind>.mpj, the kind as
     *  campaignKindName() spells it); created on demand. */
    std::string journalDir;

    /** Continue from an existing journal instead of truncating it. */
    bool resume = false;

    /** Trials per journal flush; a crash loses at most this many. */
    std::uint64_t batchSize = 256;

    /**
     * Worker threads executing trials: 1 runs the classic serial
     * loop, 0 uses every hardware thread, N uses N workers. Trials
     * execute out of order across workers, but outcomes are
     * accumulated and journaled strictly in index order, so the
     * journal bytes and the CampaignResult are identical for every
     * value of this knob (see docs/performance.md).
     */
    unsigned jobs = 1;

    /** Unread: the golden-run cache key and the journal header's
     *  scale come from the workload's stamped identity
     *  (workloads::Workload::identity()). Only the layered benchmark
     *  (layerbench/) still assigns these two; they go once it
     *  stops. */
    double scale = 1.0;
    bool useGoldenCache = false;

    /** Install SIGINT/SIGTERM handlers for the duration of the run
     *  (flush journal + print resume hint). A delivered signal stays
     *  delivered for the rest of the process, so every later run
     *  with this set stops before its first trial: a study stops as
     *  a whole. CLI front-ends enable this; library/test embeddings
     *  usually leave it off. */
    bool handleSignals = false;

    /** Optional cooperative stop: polled between trials. */
    std::function<bool()> shouldStop;
};

/** Outcome of a supervised campaign run. */
struct SupervisedCampaign
{
    /** Aggregated tallies over completed trials (resumed ones
     *  included). */
    CampaignResult result;

    /** Trials the campaign runs in total (CampaignConfig::trials). */
    std::uint64_t planned = 0;

    /** Trials loaded from the journal instead of executed. */
    std::uint64_t resumed = 0;

    /** Trials abandoned because the workload threw. */
    std::uint64_t poisoned = 0;

    /** Per-cause counters, indexed by TrialFailure. */
    std::array<std::uint64_t,
               static_cast<std::size_t>(TrialFailure::NumFailures)>
        failureCounts{};

    /** True when the run stopped early (signal / shouldStop). */
    bool interrupted = false;

    /** Journal file used, when any. */
    std::string journalPath;

    /** Campaign-level refusal (resume mismatch, non-finite golden,
     *  unopenable journal); empty on a normal run. */
    std::string error;

    /** Completed fraction of the planned trials (1.0 when all ran;
     *  poisoned trials reduce coverage). */
    double
    coverage() const
    {
        return planned ? static_cast<double>(result.trials) /
                             static_cast<double>(planned)
                       : 1.0;
    }

    /** All planned trials accounted for (completed or poisoned). */
    bool
    complete() const
    {
        return error.empty() && !interrupted &&
               result.trials + poisoned == planned;
    }
};

/**
 * Run one campaign under supervision.
 *
 * The library's one campaign entry point. With an empty
 * journalPath and a journalDir set, the journal file name is derived
 * from the workload, precision and campaign kind (see
 * SupervisorConfig::journalDir).
 *
 * @param w           Workload (reset per trial).
 * @param kind        Which campaign protocol to run.
 * @param config      Campaign physics knobs.
 * @param supervisor  Robustness knobs (journal, resume, jobs...).
 * @param kind_filter Datapath campaigns: restrict to one op kind.
 * @param engines     Persistent campaigns: engine allocations.
 */
SupervisedCampaign
runSupervisedCampaign(workloads::Workload &w, CampaignKind kind,
                      const CampaignConfig &config,
                      const SupervisorConfig &supervisor,
                      fp::OpKind kind_filter = fp::OpKind::NumKinds,
                      const std::vector<EngineAllocation> &engines = {});

/**
 * fatal() when the supervisor refused @p run, naming the campaign
 * (workload, precision, kind) and the reason. Every front end that
 * cannot report a refusal itself stops on it this way.
 */
void requireAccepted(const SupervisedCampaign &run,
                     const workloads::Workload &w, CampaignKind kind);

/** Result of replaying one journaled trial. */
struct ReplayResult
{
    /** Fresh re-execution of the trial, with the fault site
     *  described (TrialOutcome::description). */
    TrialOutcome trial;

    /** The journaled record for the same index, when present. */
    TrialRecord journaled;
    bool hasJournaled = false;

    /** True when every journaled column matches the re-execution. */
    bool consistent = true;

    /** The first journal column (the `#columns=` name) that differs
     *  from the re-execution's record; empty when consistent. */
    std::string mismatch;

    /** Non-empty when the replay could not run. */
    std::string error;
};

/**
 * Re-execute one journaled trial standalone and dump its anatomy.
 *
 * The caller rebuilds the workload from the journal header
 * (name/precision/scale); this function refuses a workload whose
 * name, precision or stamped scale differs from the header,
 * validates the golden-run fingerprint, derives the trial's RNG
 * stream from (seed, index) and runs exactly that trial.
 */
ReplayResult replayTrial(workloads::Workload &w,
                         const Journal &journal, std::uint64_t index);

} // namespace mparch::fault

#endif // MPARCH_FAULT_SUPERVISOR_HH

/**
 * @file
 * Tests for the crash-safe campaign supervisor: counter-based trial
 * RNG, journal round-trips, kill-and-resume bit-exactness, sharding,
 * trial replay, and the structured failure taxonomy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/journal.hh"
#include "fault/supervisor.hh"
#include "workloads/mxm.hh"
#include "workloads/workload.hh"
#include "test_util.hh"

namespace mparch::fault {
namespace {

using fp::Precision;
using test::expectSameResult;
using test::slurp;
using test::tempPath;
using workloads::makeWorkload;
using workloads::Workload;

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/**
 * Minimal workload for failure-taxonomy tests. Its iteration count
 * lives in a corruptible buffer and is re-read every tick, so an
 * exponent flip makes the loop overrun the watchdog budget (a hang);
 * an optional callback turns chosen execute() calls into exceptions.
 */
class ToyWorkload : public Workload
{
  public:
    using Single = fp::Fp<Precision::Single>;

    explicit ToyWorkload(double steps = 8.0) : initialSteps_(steps)
    {
        steps_.assign(1, Single::fromDouble(steps));
        out_.assign(4, Single::fromDouble(0.0));
    }

    std::string name() const override { return "toy"; }
    Precision precision() const override { return Precision::Single; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<ToyWorkload>(*this);
    }

    void
    reset(std::uint64_t) override
    {
        steps_[0] = Single::fromDouble(initialSteps_);
        for (auto &v : out_)
            v = Single::fromDouble(0.0);
    }

    void
    execute(workloads::ExecutionEnv &env) override
    {
        ++executions;
        if (throwOn && throwOn(executions))
            throw std::runtime_error("injected transient failure");
        double acc = outputBias;
        for (double i = 0.0;
             i < steps_[0].toDouble() && !env.aborted(); i += 1.0) {
            env.tick();
            if (throwIntOnCorruptSteps &&
                steps_[0].toDouble() != initialSteps_)
                throw 7;
            acc += i;
        }
        for (std::size_t i = 0; i < out_.size(); ++i)
            out_[i] = Single::fromDouble(acc + static_cast<double>(i));
    }

    std::vector<workloads::BufferView>
    buffers() override
    {
        return {workloads::makeBufferView("steps", steps_),
                workloads::makeBufferView("out", out_)};
    }

    workloads::BufferView
    output() override
    {
        return workloads::makeBufferView("out", out_);
    }

    workloads::KernelDesc desc() const override { return {}; }

    /** Execution counter (1 == the golden run). */
    int executions = 0;

    /** When set, execute() throws on calls where this returns true. */
    std::function<bool(int)> throwOn;

    /** Added to every output element (golden perturbation knob). */
    double outputBias = 0.0;

    /** When set, a trial whose fault lands in the loop bound throws
     *  an int (a non-std exception) from execute(). */
    bool throwIntOnCorruptSteps = false;

  private:
    double initialSteps_;
    std::vector<Single> steps_;
    std::vector<Single> out_;
};

TEST(TrialRngTest, CounterBasedAndOrderIndependent)
{
    // Drawing trial 5's stream never depends on trials 0..4 having
    // been drawn — the property sharding and replay rest on.
    Rng direct = trialRng(7, 5);
    for (std::uint64_t i = 0; i < 5; ++i)
        (void)trialRng(7, i).next();
    Rng again = trialRng(7, 5);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(direct.next(), again.next());
}

TEST(TrialRngTest, DistinctIndicesDistinctStreams)
{
    EXPECT_NE(trialRng(7, 0).next(), trialRng(7, 1).next());
    EXPECT_NE(trialRng(7, 1).next(), trialRng(8, 1).next());
}

TEST(JournalTest, HeaderAndRecordsRoundTrip)
{
    JournalHeader header;
    header.kind = CampaignKind::Persistent;
    header.workload = "mxm";
    header.precision = Precision::Half;
    header.scale = 0.35;
    header.config.trials = 123;
    header.config.seed = 99;
    header.config.model = FaultModel::RandomByte;
    header.config.timeoutFactor = 2.5;
    header.config.recordAnatomy = true;
    header.kindFilter = fp::OpKind::Mul;
    header.engines = {{{"fma", fp::OpKind::Fma, 16, 0, 8}, 4}};
    header.shardCount = 3;
    header.shardIndex = 1;
    header.goldenFingerprint = 0xdeadbeefcafe1234ULL;

    const std::string path = tempPath("roundtrip.mpj");
    {
        JournalWriter writer(path, header, /*batch=*/2,
                             /*truncate=*/true);
        TrialRecord rec;
        rec.index = 1;
        rec.outcome = OutcomeKind::Sdc;
        rec.maxRel = 0.125;
        rec.corruptedFraction = 0.5;
        rec.severity = 2;
        rec.bit = 30;
        rec.field = 1;
        writer.append(rec);
        rec.index = 4;
        rec.outcome = OutcomeKind::Due;
        writer.append(rec);
        EXPECT_TRUE(writer.ok());
    }

    std::string error;
    const auto journal = readJournal(path, &error);
    ASSERT_TRUE(journal.has_value()) << error;
    EXPECT_TRUE(journal->header.mismatch(header).empty())
        << journal->header.mismatch(header);
    ASSERT_EQ(journal->records.size(), 2u);
    EXPECT_EQ(journal->records[0].index, 1u);
    EXPECT_EQ(journal->records[0].outcome, OutcomeKind::Sdc);
    EXPECT_EQ(journal->records[0].maxRel, 0.125);
    EXPECT_EQ(journal->records[0].bit, 30);
    EXPECT_EQ(journal->records[1].outcome, OutcomeKind::Due);
}

TEST(JournalTest, HeaderScaleIsTheStampedScale)
{
    // A default SupervisorConfig journals the scale the factory
    // stamped; a hand-built workload records the default, 1.
    CampaignConfig config;
    config.trials = 4;
    SupervisorConfig supervisor;
    supervisor.journalPath = tempPath("header-scale.mpj");
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    (void)runSupervisedCampaign(*w, CampaignKind::Memory, config,
                                supervisor);
    const auto stamped = readJournal(supervisor.journalPath);
    ASSERT_TRUE(stamped.has_value());
    EXPECT_EQ(stamped->header.scale, 0.1);
    EXPECT_NE(slurp(supervisor.journalPath).find("\n#scale=0.1\n"),
              std::string::npos);

    workloads::MxMWorkload<Precision::Single> hand_built(0.1);
    (void)runSupervisedCampaign(hand_built, CampaignKind::Memory, config,
                                supervisor);
    const auto unstamped = readJournal(supervisor.journalPath);
    ASSERT_TRUE(unstamped.has_value());
    EXPECT_EQ(unstamped->header.scale, 1.0);
}

TEST(JournalTest, OutOfRangeScaleIsRefused)
{
    JournalHeader header;
    header.workload = "mxm";
    const std::string path = tempPath("bad-scale.mpj");
    { JournalWriter writer(path, header, 1, /*truncate=*/true); }
    const std::string text = slurp(path);
    ASSERT_NE(text.find("\n#scale=1\n"), std::string::npos);
    for (const std::string bad : {"0", "-1", "16.5", "1e9", "inf", "nan"}) {
        std::string tampered = text;
        tampered.replace(tampered.find("#scale=1\n"), 9,
                         "#scale=" + bad + "\n");
        std::ofstream(path) << tampered;
        std::string error;
        EXPECT_FALSE(readJournal(path, &error).has_value()) << bad;
        EXPECT_NE(error.find("bad scale '" + bad + "'"), std::string::npos)
            << error;
    }
    std::string tampered = text;
    tampered.replace(tampered.find("#scale=1\n"), 9, "#scale=16\n");
    std::ofstream(path) << tampered;
    EXPECT_TRUE(readJournal(path).has_value());
}

TEST(JournalTest, HeaderMismatchIsDetectedAndReadable)
{
    JournalHeader a;
    a.workload = "mxm";
    a.config.trials = 100;
    JournalHeader b = a;
    b.config.trials = 200;
    const std::string why = a.mismatch(b);
    EXPECT_NE(why.find("trials"), std::string::npos) << why;
    b = a;
    b.goldenFingerprint = 1;
    EXPECT_FALSE(a.mismatch(b).empty());
}

TEST(JournalTest, TornFinalLineIsDiscarded)
{
    JournalHeader header;
    header.workload = "toy";
    header.config.trials = 10;
    const std::string path = tempPath("torn.mpj");
    {
        JournalWriter writer(path, header, 1, true);
        TrialRecord rec;
        rec.index = 0;
        writer.append(rec);
    }
    // Simulate a crash mid-append: a partial record with no newline.
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "1,sdc,0.5";
    }
    const auto journal = readJournal(path);
    ASSERT_TRUE(journal.has_value());
    ASSERT_EQ(journal->records.size(), 1u);
    EXPECT_EQ(journal->records[0].index, 0u);
}

TEST(SupervisorTest, SameSeedTwiceIdenticalTallies)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 80;
    config.seed = 3;
    config.recordAnatomy = true;
    const SupervisorConfig supervisor;
    const auto a = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, supervisor);
    const auto b = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, supervisor);
    EXPECT_TRUE(a.error.empty()) << a.error;
    expectSameResult(a.result, b.result);

    const auto c = runSupervisedCampaign(
        *w, CampaignKind::Datapath, config, supervisor);
    const auto d = runSupervisedCampaign(
        *w, CampaignKind::Datapath, config, supervisor);
    expectSameResult(c.result, d.result);
}

TEST(SupervisorTest, ShardedRunsMergeToUnshardedResult)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 90;
    config.seed = 13;
    config.recordAnatomy = true;

    const auto whole = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, SupervisorConfig{});

    CampaignResult merged;
    std::uint64_t planned = 0;
    for (std::uint64_t shard = 0; shard < 3; ++shard) {
        SupervisorConfig supervisor;
        supervisor.shardCount = 3;
        supervisor.shardIndex = shard;
        const auto part = runSupervisedCampaign(
            *w, CampaignKind::Memory, config, supervisor);
        EXPECT_TRUE(part.error.empty()) << part.error;
        planned += part.planned;
        merged.merge(part.result);
    }
    EXPECT_EQ(planned, config.trials);
    // Counter-based trial RNG makes shard tallies add up exactly.
    EXPECT_EQ(merged.trials, whole.result.trials);
    EXPECT_EQ(merged.masked, whole.result.masked);
    EXPECT_EQ(merged.sdc, whole.result.sdc);
    EXPECT_EQ(merged.due, whole.result.due);
    EXPECT_EQ(merged.detected, whole.result.detected);
    EXPECT_EQ(merged.corpus.size(), whole.result.corpus.size());
    EXPECT_EQ(merged.anatomy.size(), whole.result.anatomy.size());
}

TEST(SupervisorTest, KillAndResumeBitIdentical)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 60;
    config.seed = 21;
    config.recordAnatomy = true;

    // Reference: uninterrupted journaled run.
    SupervisorConfig supervisor;
    supervisor.journalPath = tempPath("kill-reference.mpj");
    supervisor.batchSize = 8;
    const auto whole = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, supervisor);
    EXPECT_TRUE(whole.error.empty()) << whole.error;
    EXPECT_TRUE(whole.complete());

    // Simulate a kill after ~2 batches: truncate the reference
    // journal mid-record (a torn final line) and resume from it.
    const std::string full = slurp(supervisor.journalPath);
    const std::string marker = "\n20,";
    const auto cut = full.find(marker);
    ASSERT_NE(cut, std::string::npos);
    SupervisorConfig resume = supervisor;
    resume.journalPath = tempPath("kill-resume.mpj");
    // Keep a torn tail so the reader's crash tolerance is exercised.
    spit(resume.journalPath, full.substr(0, cut + marker.size()));
    resume.resume = true;
    const auto resumed = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, resume);
    EXPECT_TRUE(resumed.error.empty()) << resumed.error;
    EXPECT_EQ(resumed.resumed, 20u);
    expectSameResult(resumed.result, whole.result);

    // The resumed journal itself replays to the same tallies again.
    const auto third = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, resume);
    EXPECT_EQ(third.resumed, config.trials);
    expectSameResult(third.result, whole.result);
}

TEST(SupervisorTest, InterruptedRunFlushesAndResumes)
{
    auto w = makeWorkload("lud", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 50;
    config.seed = 31;

    SupervisorConfig supervisor;
    supervisor.journalPath = tempPath("interrupt.mpj");
    supervisor.batchSize = 4;
    std::uint64_t started = 0;
    supervisor.shouldStop = [&] { return ++started > 30; };
    const auto partial = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, supervisor);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_LT(partial.result.trials, config.trials);
    EXPECT_LT(partial.coverage(), 1.0);
    EXPECT_FALSE(partial.complete());

    SupervisorConfig resume = supervisor;
    resume.shouldStop = nullptr;
    resume.resume = true;
    const auto resumed = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, resume);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.resumed, partial.result.trials);
    EXPECT_TRUE(resumed.complete());

    const auto whole = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, SupervisorConfig{});
    expectSameResult(resumed.result, whole.result);
}

TEST(SupervisorTest, ResumeRefusesMismatchedConfig)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 20;
    config.seed = 41;

    SupervisorConfig supervisor;
    supervisor.journalPath = tempPath("mismatch.mpj");
    const auto first = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, supervisor);
    EXPECT_TRUE(first.error.empty()) << first.error;

    supervisor.resume = true;
    config.seed = 42;
    const auto second = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, supervisor);
    EXPECT_NE(second.error.find("refusing to resume"),
              std::string::npos)
        << second.error;
    EXPECT_EQ(second.result.trials, 0u);
}

TEST(SupervisorTest, ResumeRefusesChangedGoldenFingerprint)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 20;
    config.seed = 43;

    SupervisorConfig supervisor;
    supervisor.journalPath = tempPath("golden-mismatch.mpj");
    const auto first = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, supervisor);
    EXPECT_TRUE(first.error.empty()) << first.error;

    // Corrupt the recorded fingerprint: the journal now claims it
    // was written against different golden data.
    std::string text = slurp(supervisor.journalPath);
    const auto pos = text.find("#golden=");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 8] = text[pos + 8] == '0' ? '1' : '0';
    spit(supervisor.journalPath, text);

    supervisor.resume = true;
    const auto second = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, supervisor);
    EXPECT_NE(second.error.find("golden"), std::string::npos)
        << second.error;
}

TEST(SupervisorTest, TransientExceptionsAreRetried)
{
    // Every trial's first attempt throws; the retry succeeds.
    ToyWorkload w;
    w.throwOn = [](int execution) {
        return execution > 1 && execution % 2 == 0;
    };
    CampaignConfig config;
    config.trials = 10;
    SupervisorConfig supervisor;
    supervisor.maxRetries = 2;
    const auto run = runSupervisedCampaign(
        w, CampaignKind::Memory, config, supervisor);
    EXPECT_TRUE(run.error.empty()) << run.error;
    EXPECT_EQ(run.result.trials, 10u);
    EXPECT_EQ(run.retried, 10u);
    EXPECT_EQ(run.poisoned, 0u);
    EXPECT_EQ(run.failureCounts[static_cast<std::size_t>(
                  TrialFailure::WorkloadException)],
              10u);
    EXPECT_TRUE(run.complete());
}

TEST(SupervisorTest, PersistentFailuresArePoisonedNotFatal)
{
    // Every injected execution throws: all trials exhaust their
    // retries, yet the campaign completes and reports coverage 0.
    ToyWorkload w;
    w.throwOn = [](int execution) { return execution > 1; };
    CampaignConfig config;
    config.trials = 6;
    SupervisorConfig supervisor;
    supervisor.maxRetries = 1;
    const auto run = runSupervisedCampaign(
        w, CampaignKind::Memory, config, supervisor);
    EXPECT_TRUE(run.error.empty()) << run.error;
    EXPECT_EQ(run.result.trials, 0u);
    EXPECT_EQ(run.poisoned, 6u);
    EXPECT_EQ(run.coverage(), 0.0);
    // Poisoned trials are accounted for: the campaign "completes"
    // with degraded coverage rather than aborting.
    EXPECT_TRUE(run.complete());
    EXPECT_EQ(run.failureCounts[static_cast<std::size_t>(
                  TrialFailure::WorkloadException)],
              12u);  // 6 trials x (1 attempt + 1 retry)
}

TEST(SupervisorTest, NonStdExceptionsPoisonAlikeAtEveryJobCount)
{
    // An int thrown from execute() poisons its trial without retry,
    // in the serial loop exactly as on worker threads.
    ToyWorkload w;
    w.throwIntOnCorruptSteps = true;
    CampaignConfig config;
    config.trials = 120;
    config.seed = 5;
    SupervisedCampaign runs[2];
    std::string journals[2];
    const unsigned jobs[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        SupervisorConfig supervisor;
        supervisor.jobs = jobs[i];
        supervisor.journalPath =
            tempPath("int-throw-" + std::to_string(jobs[i]) + ".mpj");
        runs[i] = runSupervisedCampaign(w, CampaignKind::Memory, config,
                                        supervisor);
        journals[i] = slurp(supervisor.journalPath);
        EXPECT_TRUE(runs[i].error.empty()) << runs[i].error;
        EXPECT_TRUE(runs[i].complete());
    }
    EXPECT_GT(runs[0].poisoned, 0u);
    EXPECT_GT(runs[0].result.trials, 0u);
    EXPECT_EQ(runs[0].poisoned, runs[1].poisoned);
    EXPECT_EQ(runs[0].failureCounts, runs[1].failureCounts);
    expectSameResult(runs[0].result, runs[1].result);
    EXPECT_EQ(journals[0], journals[1]);
}

TEST(SupervisorDeathTest, SignalStopsEveryLaterCampaign)
{
    // A SIGINT delivered during one campaign interrupts it, and stays
    // delivered: the next signal-handling campaign in the process
    // runs no trial (a study stops as a whole). The flag stays set
    // for the life of the process, so the campaigns run in a child
    // process and this one's flag stays clear.
    const auto campaigns = [] {
        auto w = makeWorkload("mxm", Precision::Single, 0.1);
        CampaignConfig config;
        config.trials = 40;
        SupervisorConfig supervisor;
        supervisor.handleSignals = true;
        std::uint64_t polls = 0;
        supervisor.shouldStop = [&] {
            if (++polls == 10)
                std::raise(SIGINT);
            return false;
        };
        const auto first = runSupervisedCampaign(
            *w, CampaignKind::Memory, config, supervisor);
        bool ok = first.interrupted && first.result.trials == 10;
        std::fprintf(stderr, "first: interrupted=%d trials=%llu\n",
                     first.interrupted,
                     static_cast<unsigned long long>(first.result.trials));

        supervisor.shouldStop = nullptr;
        for (unsigned jobs : {1u, 4u}) {
            supervisor.jobs = jobs;
            const auto later = runSupervisedCampaign(
                *w, CampaignKind::Datapath, config, supervisor);
            ok = ok && later.error.empty() && later.interrupted &&
                 later.result.trials == 0;
            std::fprintf(
                stderr, "jobs %u: interrupted=%d trials=%llu %s\n", jobs,
                later.interrupted,
                static_cast<unsigned long long>(later.result.trials),
                later.error.c_str());
        }
        std::exit(ok ? 0 : 1);
    };
    EXPECT_EXIT(campaigns(), ::testing::ExitedWithCode(0), "");
}

TEST(SupervisorTest, ZeroShardCountIsRefused)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 10;
    SupervisorConfig supervisor;
    supervisor.shardCount = 0;
    const auto run = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, supervisor);
    EXPECT_NE(run.error.find("shard count"), std::string::npos)
        << run.error;
    EXPECT_EQ(run.result.trials, 0u);
}

TEST(SupervisorTest, HangsAreClassifiedAsDueAndCounted)
{
    // Exponent flips in the loop-bound buffer inflate the iteration
    // count past the watchdog budget.
    ToyWorkload w;
    CampaignConfig config;
    config.trials = 200;
    config.seed = 5;
    const auto run = runSupervisedCampaign(
        w, CampaignKind::Memory, config, SupervisorConfig{});
    EXPECT_TRUE(run.error.empty()) << run.error;
    EXPECT_EQ(run.result.trials, 200u);
    EXPECT_GT(run.result.due, 0u);
    EXPECT_EQ(run.failureCounts[static_cast<std::size_t>(
                  TrialFailure::HangWatchdog)],
              run.result.due);
    EXPECT_EQ(run.result.masked + run.result.sdc + run.result.due +
                  run.result.detected,
              run.result.trials);
}

TEST(SupervisorTest, NonFiniteGoldenIsRefusedUpFront)
{
    ToyWorkload w;
    w.outputBias = 1e39;  // overflows single precision: golden = inf
    CampaignConfig config;
    config.trials = 10;
    const auto run = runSupervisedCampaign(
        w, CampaignKind::Memory, config, SupervisorConfig{});
    EXPECT_NE(run.error.find("non-finite"), std::string::npos)
        << run.error;
    EXPECT_EQ(run.result.trials, 0u);
    EXPECT_EQ(run.failureCounts[static_cast<std::size_t>(
                  TrialFailure::NonFiniteGolden)],
              1u);
}

TEST(ReplayTest, JournaledTrialsReplayConsistently)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 30;
    config.seed = 51;
    config.recordAnatomy = true;
    SupervisorConfig supervisor;
    supervisor.journalPath = tempPath("replay.mpj");
    const auto run = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, supervisor);
    EXPECT_TRUE(run.complete());

    const auto journal = readJournal(supervisor.journalPath);
    ASSERT_TRUE(journal.has_value());
    ASSERT_EQ(journal->records.size(), 30u);
    for (std::uint64_t index : {0u, 7u, 29u}) {
        const auto replay = replayTrial(*w, *journal, index);
        EXPECT_TRUE(replay.error.empty()) << replay.error;
        ASSERT_TRUE(replay.hasJournaled);
        EXPECT_TRUE(replay.consistent);
        EXPECT_EQ(replay.trial.outcome, replay.journaled.outcome);
        EXPECT_FALSE(replay.trial.description.empty());
        if (replay.trial.outcome == OutcomeKind::Sdc) {
            EXPECT_EQ(replay.trial.sdc.maxRel,
                      replay.journaled.maxRel);
        }
    }
}

TEST(ReplayTest, TamperedRecordNamesFirstDifferingColumn)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 40;
    config.recordAnatomy = true;
    SupervisorConfig supervisor;
    supervisor.journalPath = tempPath("replay-tampered.mpj");
    EXPECT_TRUE(runSupervisedCampaign(*w, CampaignKind::Memory, config,
                                      supervisor)
                    .complete());
    const auto journal = readJournal(supervisor.journalPath);
    ASSERT_TRUE(journal.has_value());
    ASSERT_EQ(journal->records.size(), 40u);

    // A replay of one record with @p edit applied to it.
    const auto replayEdited = [&](std::uint64_t index,
                                  const std::function<void(TrialRecord &)>
                                      &edit) {
        Journal tampered = *journal;
        for (auto &rec : tampered.records)
            if (rec.index == index)
                edit(rec);
        return replayTrial(*w, tampered, index);
    };

    const auto untouched = replayEdited(1, [](TrialRecord &) {});
    EXPECT_TRUE(untouched.consistent);
    EXPECT_EQ(untouched.mismatch, "");

    // The record that slipped through when only outcomes were compared.
    const auto forged = replayEdited(1, [](TrialRecord &rec) {
        rec.outcome = OutcomeKind::Sdc;
        rec.maxRel = 0.5;
        rec.corruptedFraction = 0.9;
        rec.severity = 2;
        rec.bit = 3;
        rec.field = 2;
    });
    EXPECT_FALSE(forged.consistent);
    EXPECT_FALSE(forged.mismatch.empty());

    // One column at a time, each named, with the outcome unchanged.
    const auto sdc = std::find_if(
        journal->records.begin(), journal->records.end(),
        [](const TrialRecord &rec) {
            return rec.outcome == OutcomeKind::Sdc;
        });
    ASSERT_NE(sdc, journal->records.end());
    const std::pair<const char *, std::function<void(TrialRecord &)>>
        edits[] = {
            {"max_rel", [](TrialRecord &r) { r.maxRel *= 2.0; }},
            {"corrupted_fraction",
             [](TrialRecord &r) { r.corruptedFraction /= 2.0; }},
            {"severity", [](TrialRecord &r) { r.severity = 0; }},
            {"bit", [](TrialRecord &r) { r.bit ^= 1; }},
            {"field", [](TrialRecord &r) { r.field = (r.field + 1) % 4; }},
        };
    for (const auto &[column, edit] : edits) {
        const auto replay = replayEdited(sdc->index, edit);
        EXPECT_FALSE(replay.consistent) << column;
        EXPECT_EQ(replay.mismatch, column);
    }
}

TEST(ReplayTest, RejectsWrongWorkloadAndStaleGolden)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 10;
    SupervisorConfig supervisor;
    supervisor.journalPath = tempPath("replay-reject.mpj");
    (void)runSupervisedCampaign(*w, CampaignKind::Memory, config,
                                supervisor);
    const auto journal = readJournal(supervisor.journalPath);
    ASSERT_TRUE(journal.has_value());

    auto other = makeWorkload("lud", Precision::Single, 0.1);
    EXPECT_FALSE(replayTrial(*other, *journal, 0).error.empty());

    // A factory workload of another size disagrees with the header's
    // scale; a hand-built one has no stamp to compare, so the golden
    // fingerprint catches it.
    auto resized = makeWorkload("mxm", Precision::Single, 0.2);
    const auto refused = replayTrial(*resized, *journal, 0);
    EXPECT_NE(refused.error.find("does not match the journal header"),
              std::string::npos)
        << refused.error;
    workloads::MxMWorkload<Precision::Single> hand_built(0.2);
    const auto stale = replayTrial(hand_built, *journal, 0);
    EXPECT_NE(stale.error.find("fingerprint"), std::string::npos)
        << stale.error;

    EXPECT_FALSE(
        replayTrial(*w, *journal, config.trials).error.empty());
}

} // namespace
} // namespace mparch::fault

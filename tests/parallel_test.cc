/**
 * @file
 * Tests for the parallel campaign engine: the executor primitives
 * (thread pool, index chunker, ordered channel), clone isolation for
 * every registered workload, parallel-vs-serial bit-exactness for
 * all three campaign kinds, journals pinned against committed
 * copies, the golden-run cache, and kill-and-resume under a
 * multi-threaded run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "arch/fpga/fpga.hh"
#include "common/parallel.hh"
#include "fault/campaign.hh"
#include "fault/supervisor.hh"
#include "mitigation/abft.hh"
#include "mitigation/replicated.hh"
#include "nn/nn_workloads.hh"
#include "workloads/mxm.hh"
#include "workloads/workload.hh"
#include "test_util.hh"

namespace mparch {
namespace {

using fault::CampaignConfig;
using fault::CampaignKind;
using fault::EngineAllocation;
using fault::GoldenRun;
using fault::runSupervisedCampaign;
using fault::SupervisedCampaign;
using fault::SupervisorConfig;
using fp::Precision;
using test::expectSameResult;
using test::slurp;
using test::tempPath;
using workloads::makeWorkload;
using workloads::Workload;

// ---------------------------------------------------------------
// Executor primitives.
// ---------------------------------------------------------------

TEST(ThreadPoolTest, EveryWorkerRunsEachGeneration)
{
    parallel::ThreadPool pool(4);
    ASSERT_EQ(pool.workers(), 4u);
    std::atomic<int> ran{0};
    pool.run([&](unsigned) { ++ran; });
    EXPECT_EQ(ran.load(), 4);
    // The pool is reusable: a second generation runs on the same
    // threads.
    pool.run([&](unsigned) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, StartReturnsBeforeCompletion)
{
    // start() must not block the caller: the calling thread acts as
    // the consumer while workers produce. The workers here wait for
    // a token only the caller can provide after start() returned.
    parallel::ThreadPool pool(2);
    std::atomic<bool> go{false};
    std::atomic<int> ran{0};
    pool.start([&](unsigned) {
        while (!go.load())
            std::this_thread::yield();
        ++ran;
    });
    go.store(true);
    pool.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(IndexChunkerTest, CoversRangeExactlyOnceAcrossThreads)
{
    constexpr std::uint64_t kCount = 1000;
    parallel::IndexChunker chunker(kCount, 7);
    std::vector<std::atomic<int>> hits(kCount);
    parallel::ThreadPool pool(4);
    pool.run([&](unsigned) {
        std::uint64_t begin = 0, end = 0;
        while (chunker.next(begin, end))
            for (std::uint64_t i = begin; i < end; ++i)
                ++hits[i];
    });
    for (std::uint64_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(IndexChunkerTest, StopLeavesContiguousPrefix)
{
    parallel::IndexChunker chunker(100, 8);
    std::uint64_t begin = 0, end = 0;
    std::uint64_t last_end = 0;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(chunker.next(begin, end));
        EXPECT_EQ(begin, last_end);  // chunks in increasing order
        last_end = end;
    }
    chunker.stop();
    EXPECT_FALSE(chunker.next(begin, end));
    EXPECT_EQ(last_end, 24u);  // claimed set is exactly [0, 24)
}

TEST(OrderedChannelTest, DeliversInOrderUnderConcurrentProducers)
{
    constexpr std::uint64_t kCount = 500;
    parallel::IndexChunker chunker(kCount, 3);
    parallel::OrderedChannel<std::uint64_t> channel(/*capacity=*/32,
                                                    /*producers=*/4);
    parallel::ThreadPool pool(4);
    pool.start([&](unsigned) {
        std::uint64_t begin = 0, end = 0;
        while (chunker.next(begin, end))
            for (std::uint64_t i = begin; i < end; ++i)
                channel.put(i, i * 2 + 1);
        channel.producerDone();
    });
    std::uint64_t expected = 0;
    while (auto value = channel.take()) {
        EXPECT_EQ(*value, expected * 2 + 1);
        ++expected;
    }
    pool.wait();
    EXPECT_EQ(expected, kCount);
    // The stream stays closed.
    EXPECT_FALSE(channel.take().has_value());
}

TEST(ResolveJobsTest, ZeroMeansAllHardwareThreads)
{
    EXPECT_GE(parallel::hardwareJobs(), 1u);
    EXPECT_EQ(parallel::resolveJobs(0, 1u << 20),
              parallel::hardwareJobs());
    EXPECT_EQ(parallel::resolveJobs(1, 10), 1u);
    EXPECT_EQ(parallel::resolveJobs(5, 10), 5u);
}

TEST(ResolveJobsTest, ClampsToTheTaskCount)
{
    // No more workers than tasks, and never none, even for no tasks.
    EXPECT_EQ(parallel::resolveJobs(64, 10), 10u);
    EXPECT_EQ(parallel::resolveJobs(4294967295u, 10), 10u);
    EXPECT_EQ(parallel::resolveJobs(10, 10), 10u);
    EXPECT_EQ(parallel::resolveJobs(0, 1), 1u);
    EXPECT_EQ(parallel::resolveJobs(7, 0), 1u);
    EXPECT_EQ(parallel::resolveJobs(0, 0), 1u);
}

// ---------------------------------------------------------------
// Workload cloning.
// ---------------------------------------------------------------

std::vector<std::uint64_t>
snapshotOutput(Workload &w)
{
    auto view = w.output();
    std::vector<std::uint64_t> bits(view.count);
    for (std::size_t i = 0; i < view.count; ++i)
        bits[i] = view.get(i);
    return bits;
}

/**
 * A clone must deep-copy: it reproduces the original's behavior
 * bit-for-bit, and running the original afterwards must not disturb
 * the clone's state (no shared storage).
 */
void
expectCloneIsolated(Workload &w)
{
    SCOPED_TRACE(w.name());
    const GoldenRun golden(w, /*input_seed=*/42);
    auto clone = w.clone();
    ASSERT_NE(clone, nullptr);
    EXPECT_EQ(clone->name(), w.name());
    EXPECT_EQ(clone->precision(), w.precision());
    // The clone carries the original's post-execution state.
    const auto before = snapshotOutput(*clone);
    EXPECT_EQ(before, snapshotOutput(w));
    // Mutating the original leaves the clone untouched.
    const GoldenRun perturbed(w, /*input_seed=*/43);
    EXPECT_EQ(snapshotOutput(*clone), before);
    // The clone replays the original's run bit-identically.
    const GoldenRun replay(*clone, /*input_seed=*/42);
    EXPECT_EQ(replay.outputBits, golden.outputBits);
    EXPECT_EQ(replay.ticks, golden.ticks);
}

TEST(CloneTest, EveryFactoryWorkloadClonesIsolated)
{
    const char *names[] = {"mxm",       "mxm-mixed", "lavamd",
                           "hotspot",   "lud",       "micro-add",
                           "micro-mul", "micro-fma", "mnist",
                           "yolite"};
    for (const char *name : names) {
        auto w = nn::makeAnyWorkload(name, Precision::Single, 0.05);
        expectCloneIsolated(*w);
    }
}

TEST(CloneTest, MitigationWorkloadsCloneIsolated)
{
    using mitigation::Redundancy;
    for (Redundancy scheme : {Redundancy::Dwc, Redundancy::Tmr}) {
        std::vector<workloads::WorkloadPtr> replicas;
        const std::size_t n =
            scheme == Redundancy::Dwc ? 2 : 3;
        for (std::size_t i = 0; i < n; ++i)
            replicas.push_back(
                makeWorkload("micro-add", Precision::Single, 0.1));
        mitigation::ReplicatedWorkload w(scheme,
                                         std::move(replicas));
        expectCloneIsolated(w);
    }
    mitigation::AbftMxMWorkload<Precision::Single> abft(0.05);
    expectCloneIsolated(abft);
}

// ---------------------------------------------------------------
// Parallel campaigns: bit-exactness against the serial loop.
// ---------------------------------------------------------------

SupervisedCampaign
runWithJobs(Workload &w, CampaignKind kind,
            const CampaignConfig &config, unsigned jobs,
            const std::string &journal,
            const std::vector<EngineAllocation> &engines = {},
            bool resume = false)
{
    SupervisorConfig supervisor;
    supervisor.jobs = jobs;
    supervisor.journalPath = journal;
    supervisor.resume = resume;
    return runSupervisedCampaign(w, kind, config, supervisor,
                                 fp::OpKind::NumKinds, engines);
}

void
expectParallelMatchesSerial(Workload &w, CampaignKind kind,
                            const CampaignConfig &config,
                            const std::vector<EngineAllocation>
                                &engines = {})
{
    const std::string serial_path = tempPath("par-serial.mpj");
    const std::string parallel_path = tempPath("par-jobs4.mpj");
    const auto serial =
        runWithJobs(w, kind, config, 1, serial_path, engines);
    const auto parallel =
        runWithJobs(w, kind, config, 4, parallel_path, engines);
    ASSERT_TRUE(serial.error.empty()) << serial.error;
    ASSERT_TRUE(parallel.error.empty()) << parallel.error;
    EXPECT_FALSE(parallel.interrupted);
    EXPECT_EQ(parallel.planned, serial.planned);
    EXPECT_EQ(parallel.poisoned, serial.poisoned);
    expectSameResult(parallel.result, serial.result);
    // The strongest statement: the journals agree byte for byte.
    EXPECT_EQ(slurp(parallel_path), slurp(serial_path));
}

TEST(ParallelCampaignTest, MemoryCampaignMatchesSerialBitExactly)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 80;
    config.seed = 3;
    config.recordAnatomy = true;
    expectParallelMatchesSerial(*w, CampaignKind::Memory, config);
}

TEST(ParallelCampaignTest, DatapathCampaignMatchesSerialBitExactly)
{
    auto w = makeWorkload("lud", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 60;
    config.seed = 11;
    expectParallelMatchesSerial(*w, CampaignKind::Datapath, config);
}

TEST(ParallelCampaignTest, PersistentCampaignMatchesSerialBitExactly)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 50;
    config.seed = 17;
    // Realistic engine allocations from the FPGA synthesis model.
    const GoldenRun golden(*w, config.inputSeed);
    const auto circuit = fpga::synthesize(*w, golden);
    ASSERT_FALSE(circuit.engines.empty());
    expectParallelMatchesSerial(*w, CampaignKind::Persistent, config,
                                circuit.engines);
}

TEST(ParallelCampaignTest, ManyWorkersOnTinyCampaign)
{
    // More workers than trials: the executor must not deadlock or
    // duplicate work when most workers find the chunker drained.
    auto w = makeWorkload("micro-add", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 3;
    config.seed = 2;
    const auto serial = runWithJobs(*w, CampaignKind::Memory, config,
                                    1, tempPath("tiny-serial.mpj"));
    const auto wide = runWithJobs(*w, CampaignKind::Memory, config,
                                  8, tempPath("tiny-wide.mpj"));
    ASSERT_TRUE(wide.error.empty()) << wide.error;
    expectSameResult(wide.result, serial.result);
}

// ---------------------------------------------------------------
// Pinned journals: today's campaigns against committed bytes.
// ---------------------------------------------------------------

/** Run @p kind at jobs 1 and 4; both journals must equal the
 *  committed tests/data/journals/<name>.mpj byte for byte. A
 *  mismatch names the fresh journal to copy over it to re-record.
 *  Then resume from the committed bytes cut after their first 10
 *  records: a journal an earlier build wrote must resume to the same
 *  bytes. */
void
expectPinnedJournal(const std::string &name, Workload &w,
                    CampaignKind kind, const CampaignConfig &config,
                    const std::vector<EngineAllocation> &engines = {})
{
    const std::string pinned =
        std::string(MPARCH_PINNED_JOURNALS) + "/" + name + ".mpj";
    const std::string expected = slurp(pinned);
    std::size_t cut = expected.find("\n#columns=");
    for (int line = 0; line <= 10 && cut != std::string::npos; ++line)
        cut = expected.find('\n', cut + 1);
    ASSERT_NE(cut, std::string::npos) << pinned;
    for (unsigned jobs : {1u, 4u}) {
        const std::string path = tempPath(
            name + "-jobs" + std::to_string(jobs) + ".mpj");
        const auto run =
            runWithJobs(w, kind, config, jobs, path, engines);
        ASSERT_TRUE(run.error.empty()) << run.error;
        EXPECT_EQ(slurp(path), expected)
            << "journal at jobs " << jobs << " differs from " << pinned
            << "; to re-record: cp " << path << " " << pinned;

        const std::string resumed = tempPath(
            name + "-resumed-jobs" + std::to_string(jobs) + ".mpj");
        std::ofstream(resumed, std::ios::binary)
            << expected.substr(0, cut + 1);
        const auto rerun = runWithJobs(w, kind, config, jobs, resumed,
                                       engines, /*resume=*/true);
        ASSERT_TRUE(rerun.error.empty()) << rerun.error;
        EXPECT_EQ(rerun.resumed, 10u);
        EXPECT_EQ(slurp(resumed), expected)
            << "resumed journal at jobs " << jobs << " differs from "
            << pinned;
    }
}

TEST(PinnedJournalTest, MemoryCampaign)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 30;
    config.seed = 3;
    config.recordAnatomy = true;
    expectPinnedJournal("memory", *w, CampaignKind::Memory, config);
}

TEST(PinnedJournalTest, DatapathCampaign)
{
    auto w = makeWorkload("lud", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 30;
    config.seed = 11;
    expectPinnedJournal("datapath", *w, CampaignKind::Datapath, config);
}

TEST(PinnedJournalTest, PersistentCampaign)
{
    auto w = makeWorkload("mxm", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 30;
    config.seed = 17;
    const GoldenRun golden(*w, config.inputSeed);
    const auto circuit = fpga::synthesize(*w, golden);
    ASSERT_FALSE(circuit.engines.empty());
    expectPinnedJournal("persistent", *w, CampaignKind::Persistent,
                        config, circuit.engines);
}

// ---------------------------------------------------------------
// Golden-run cache.
// ---------------------------------------------------------------

TEST(GoldenCacheTest, SharedByKeyAndDistinctAcrossKeys)
{
    fault::clearGoldenRunCache();
    auto w = makeWorkload("micro-add", Precision::Single, 0.1);
    const auto a = fault::goldenRunFor(*w, 99);
    // One reference execution, also for a clone (it keeps the stamp)
    // and through the layered benchmark's entry point.
    EXPECT_EQ(fault::goldenRunFor(*w, 99).get(), a.get());
    EXPECT_EQ(fault::goldenRunFor(*w->clone(), 99).get(), a.get());
    EXPECT_EQ(fault::cachedGoldenRun(*w, 99, 0.1).get(), a.get());
    EXPECT_NE(fault::goldenRunFor(*w, 100).get(), a.get());
    auto larger = makeWorkload("micro-add", Precision::Single, 0.2);
    EXPECT_NE(fault::goldenRunFor(*larger, 99).get(), a.get());
    // The cached run equals a fresh one (the cache only spares the
    // recomputation, never changes the reference).
    const GoldenRun fresh(*w, 99);
    EXPECT_EQ(a->outputBits, fresh.outputBits);
    EXPECT_EQ(a->ticks, fresh.ticks);
    fault::clearGoldenRunCache();
}

TEST(GoldenCacheTest, HandBuiltWorkloadsNeverShareARun)
{
    // Same name and precision, different sizes: an unstamped workload
    // gets its own reference every time, never another's.
    fault::clearGoldenRunCache();
    workloads::MxMWorkload<Precision::Single> small(0.1), large(0.2);
    ASSERT_EQ(small.name(), large.name());
    const auto a = fault::goldenRunFor(small, 99);
    const auto b = fault::goldenRunFor(large, 99);
    EXPECT_NE(a->ticks, b->ticks);
    EXPECT_EQ(a->ticks, GoldenRun(small, 99).ticks);
    EXPECT_EQ(b->ticks, GoldenRun(large, 99).ticks);
    EXPECT_NE(fault::goldenRunFor(small, 99).get(), a.get());
    fault::clearGoldenRunCache();
}

TEST(GoldenCacheTest, CachedCampaignMatchesUncached)
{
    // The stamped workload's campaigns share a cached golden run; the
    // hand-built twin computes its own. The results agree.
    fault::clearGoldenRunCache();
    auto stamped = makeWorkload("mxm", Precision::Single, 0.1);
    workloads::MxMWorkload<Precision::Single> hand_built(0.1);
    ASSERT_EQ(hand_built.identity(), nullptr);
    CampaignConfig config;
    config.trials = 40;
    config.seed = 5;
    const auto a = runSupervisedCampaign(hand_built, CampaignKind::Memory,
                                         config, SupervisorConfig{});
    const auto b = runSupervisedCampaign(*stamped, CampaignKind::Memory,
                                         config, SupervisorConfig{});
    const auto c = runSupervisedCampaign(*stamped, CampaignKind::Memory,
                                         config, SupervisorConfig{});
    expectSameResult(b.result, a.result);
    expectSameResult(c.result, a.result);
    fault::clearGoldenRunCache();
}

TEST(WorkloadIdentityTest, FactoriesStampAndCopiesKeepIt)
{
    using workloads::WorkloadIdentity;
    const auto expect = [](const Workload &w, const std::string &name,
                           Precision p, double scale) {
        ASSERT_NE(w.identity(), nullptr) << name;
        EXPECT_EQ(*w.identity(), (WorkloadIdentity{name, p, scale}));
        const auto copy = w.clone();
        ASSERT_NE(copy->identity(), nullptr) << name;
        EXPECT_EQ(*copy->identity(), *w.identity());
    };
    expect(*makeWorkload("lud", Precision::Half, 0.3), "lud",
           Precision::Half, 0.3);
    expect(*nn::makeAnyWorkload("micro-fma", Precision::Double, 0.1),
           "micro-fma", Precision::Double, 0.1);
    expect(*nn::makeAnyWorkload("yolite", Precision::Single, 0.5),
           "yolite", Precision::Single, 0.5);
    expect(*mitigation::makeAbftMxM(Precision::Single, 0.1), "mxm-abft",
           Precision::Single, 0.1);
    expect(*mitigation::makeReplicated(mitigation::Redundancy::Tmr, "mxm",
                                       Precision::Bfloat16, 0.2),
           "mxm-tmr", Precision::Bfloat16, 0.2);
    workloads::MxMWorkload<Precision::Single> hand_built(0.1);
    EXPECT_EQ(hand_built.identity(), nullptr);
    EXPECT_EQ(hand_built.clone()->identity(), nullptr);
}

// ---------------------------------------------------------------
// Trial descriptions stay off the hot path.
// ---------------------------------------------------------------

TEST(ParallelCampaignTest, DescriptionsOnlyWhenRequested)
{
    auto w = makeWorkload("micro-add", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 4;
    auto runner =
        fault::makeTrialRunner(*w, CampaignKind::Memory, config);
    EXPECT_TRUE(runner->runTrial(0, false).description.empty());
    EXPECT_FALSE(runner->runTrial(0, true).description.empty());
}

// ---------------------------------------------------------------
// Cooperative stop and resume under a parallel run.
// ---------------------------------------------------------------

TEST(ParallelCampaignTest, StopAndResumeUnderJobs4MatchesOneShot)
{
    auto w = makeWorkload("micro-add", Precision::Single, 0.1);
    CampaignConfig config;
    config.trials = 1500;
    config.seed = 5;
    config.recordAnatomy = true;

    const std::string oneshot_path = tempPath("par-oneshot.mpj");
    const auto whole = runWithJobs(*w, CampaignKind::Memory, config,
                                   1, oneshot_path);
    ASSERT_TRUE(whole.error.empty()) << whole.error;

    // First run: stop after a few supervisor polls. The executor
    // drains in-flight trials, journals the contiguous prefix and
    // reports the run as interrupted.
    const std::string path = tempPath("par-resume.mpj");
    SupervisorConfig first;
    first.journalPath = path;
    first.jobs = 4;
    std::atomic<int> polls{0};
    first.shouldStop = [&polls] { return ++polls > 2; };
    const auto partial = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, first);
    ASSERT_TRUE(partial.error.empty()) << partial.error;
    EXPECT_TRUE(partial.interrupted);
    EXPECT_LT(partial.result.trials, config.trials);

    // Second run resumes the journal, still with 4 workers, and must
    // land exactly on the one-shot result and journal bytes.
    SupervisorConfig second;
    second.journalPath = path;
    second.jobs = 4;
    second.resume = true;
    const auto resumed = runSupervisedCampaign(
        *w, CampaignKind::Memory, config, second);
    ASSERT_TRUE(resumed.error.empty()) << resumed.error;
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.resumed, partial.result.trials);
    EXPECT_EQ(resumed.result.trials, config.trials);
    expectSameResult(resumed.result, whole.result);
    EXPECT_EQ(slurp(path), slurp(oneshot_path));
}

} // namespace
} // namespace mparch

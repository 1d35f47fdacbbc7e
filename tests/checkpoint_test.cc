/**
 * @file
 * Tests for golden-prefix checkpoints: every resumable workload
 * resumed at any checkpoint reproduces its golden run, and campaigns
 * whose trials restore checkpoints and stop early on a proven mask
 * give exactly the outcomes of trials that reset and run whole.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/supervisor.hh"
#include "mitigation/abft.hh"
#include "mitigation/replicated.hh"
#include "nn/nn_workloads.hh"
#include "workloads/workload.hh"
#include "test_util.hh"

namespace mparch::fault {
namespace {

using fp::Precision;
using workloads::BufferView;
using workloads::ExecutionEnv;
using workloads::Workload;
using workloads::WorkloadPtr;

constexpr std::uint64_t kInputSeed = 99;

/**
 * Restore each checkpoint of the golden run of @p make's workload
 * into a fresh instance and run it to the end. Returns how the first
 * departing resume differs from the golden run (op counts or state at
 * a later checkpoint, tick count, final op counts, output bits), or
 * "" when every resume reproduces it.
 */
std::string
resumeDeparture(const std::function<WorkloadPtr()> &make)
{
    auto w = make();
    const GoldenRun golden(*w, kInputSeed);
    const GoldenCheckpoints &checkpoints = golden.checkpoints;
    for (std::size_t k = 0; k < checkpoints.size(); ++k) {
        const std::string at =
            "resumed at tick " + std::to_string(checkpoints[k].tick) + ": ";
        auto fresh = make();
        checkpoints.restore(k, *fresh);
        // Count op entries the way a trial's trigger does.
        fp::FpHook identity;
        fp::StrikeTrigger entries;
        entries.seen = checkpoints[k].entered;
        fp::FpContext ctx;
        ctx.hook = &identity;
        ctx.strike = &entries;
        ctx.opCount = checkpoints[k].ops;
        ExecutionEnv env(checkpoints[k].tick);
        std::string departure;
        env.onTick = [&](std::uint64_t tick) {
            const std::size_t j = checkpoints.at(tick);
            if (j == checkpoints.size() || !departure.empty())
                return;
            const std::string where = "tick " + std::to_string(tick);
            if (ctx.opCount != checkpoints[j].ops)
                departure = "op counts differ at " + where;
            else if (entries.seen != checkpoints[j].entered)
                departure = "op entries differ at " + where;
            else if (!checkpoints.matches(j, *fresh))
                departure = "state differs at " + where;
        };
        {
            fp::FpEnvGuard guard(ctx);
            fresh->execute(env);
        }
        if (!departure.empty())
            return at + departure;
        if (env.ticks() != golden.ticks)
            return at + "ran " + std::to_string(env.ticks()) + " ticks";
        if (ctx.opCount != golden.ops.opCount)
            return at + "final op counts differ";
        const BufferView out = fresh->output();
        for (std::size_t i = 0; i < out.count; ++i) {
            if (out.get(i) != golden.outputBits[i])
                return at + "output element " + std::to_string(i) +
                       " differs";
        }
    }
    return "";
}

TEST(CheckpointTest, EveryResumableWorkloadResumesToItsGoldenRun)
{
    for (const std::string_view name : workloads::workloadNames()) {
        for (const Precision p :
             {Precision::Half, Precision::Single, Precision::Double,
              Precision::Bfloat16}) {
            SCOPED_TRACE(std::string(name) + "/" +
                         std::string(fp::precisionName(p)));
            const auto make = [&] {
                return workloads::makeWorkload(std::string(name), p, 0.1);
            };
            auto w = make();
            ASSERT_FALSE(w->checkpointState().empty())
                << "every numeric kernel is resumable";
            const GoldenRun golden(*w, kInputSeed);
            EXPECT_GT(golden.checkpoints.size(), 1u);
            EXPECT_LE(golden.checkpoints.size(),
                      GoldenCheckpoints::kMaxCheckpoints);
            EXPECT_EQ(resumeDeparture(make), "");

            // Every injectable element lies inside the declared state,
            // or a memory fault could hide from the early-exit compare.
            golden.checkpoints.restore(0, *w);
            for (const BufferView &view : w->buffers()) {
                for (const std::size_t i : {std::size_t{0}, view.count - 1}) {
                    const std::uint64_t bits = view.get(i);
                    view.set(i, bits ^ 1);
                    EXPECT_FALSE(golden.checkpoints.matches(0, *w))
                        << view.name << "[" << i << "]";
                    view.set(i, bits);
                }
            }
            EXPECT_TRUE(golden.checkpoints.matches(0, *w));
        }
    }
}

/** A resumable workload breaking the contract: one counted op runs
 *  before its first tick, so every resume past tick 0 repeats it. */
class EagerWorkload : public Workload
{
  public:
    using Single = fp::Fp<Precision::Single>;

    std::string name() const override { return "eager"; }
    Precision precision() const override { return Precision::Single; }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<EagerWorkload>(*this);
    }

    void
    reset(std::uint64_t) override
    {
        x_.assign(4, Single::fromDouble(1.0));
    }

    void
    execute(ExecutionEnv &env) override
    {
        const Single step =
            Single::fromDouble(0.25) + Single::fromDouble(0.5);
        for (std::size_t t = env.startTick(); t < 8; ++t) {
            env.tick();
            if (env.aborted())
                return;
            for (auto &v : x_)
                v = v + step;
        }
    }

    std::vector<BufferView>
    buffers() override
    {
        return {workloads::makeBufferView("x", x_)};
    }

    BufferView output() override { return workloads::makeBufferView("x", x_); }

    workloads::KernelDesc desc() const override { return {}; }

    std::vector<std::span<std::byte>>
    checkpointState() override
    {
        return {workloads::stateBytes(x_)};
    }

  private:
    std::vector<Single> x_ = std::vector<Single>(4);
};

TEST(CheckpointTest, OpBeforeFirstTickFailsResumeCheck)
{
    const std::string departure =
        resumeDeparture([] { return std::make_unique<EagerWorkload>(); });
    EXPECT_NE(departure.find("op counts differ"), std::string::npos)
        << departure;
}

TEST(CheckpointTest, CnnsAndMitigationWrappersOptOut)
{
    for (const char *name : {"mnist", "yolite"}) {
        auto w = nn::makeAnyWorkload(name, Precision::Half, 0.5);
        EXPECT_TRUE(w->checkpointState().empty()) << name;
        EXPECT_TRUE(GoldenRun(*w, kInputSeed).checkpoints.empty()) << name;
    }
    auto abft = mitigation::makeAbftMxM(Precision::Single, 0.1);
    EXPECT_TRUE(abft->checkpointState().empty());
    for (const auto scheme :
         {mitigation::Redundancy::Dwc, mitigation::Redundancy::Tmr}) {
        auto replicated = mitigation::makeReplicated(
            scheme, "mxm", Precision::Single, 0.1);
        EXPECT_TRUE(replicated->checkpointState().empty());
        EXPECT_TRUE(GoldenRun(*replicated, kInputSeed).checkpoints.empty());
    }
}

/**
 * @p inner behind the default checkpointState(): not resumable, so
 * its trials reset and run every tick, the reference the
 * checkpointed trials must reproduce.
 */
class NoCheckpoints : public Workload
{
  public:
    explicit NoCheckpoints(WorkloadPtr inner) : inner_(std::move(inner)) {}

    std::string name() const override { return inner_->name(); }
    Precision precision() const override { return inner_->precision(); }

    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<NoCheckpoints>(inner_->clone());
    }

    void reset(std::uint64_t seed) override { inner_->reset(seed); }
    void execute(ExecutionEnv &env) override { inner_->execute(env); }
    std::vector<BufferView> buffers() override { return inner_->buffers(); }
    BufferView output() override { return inner_->output(); }
    workloads::KernelDesc desc() const override { return inner_->desc(); }

    workloads::SdcSeverity
    classifySdc(const std::vector<std::uint64_t> &golden_bits) override
    {
        return inner_->classifySdc(golden_bits);
    }

  private:
    WorkloadPtr inner_;
};

/** The description without the checkpoint path fields. */
std::string
faultSite(const std::string &description)
{
    return description.substr(0, description.find(" resumed-at="));
}

/** One campaign of the equivalence matrix. */
struct Case
{
    std::string workload;
    Precision precision;
    CampaignKind kind;
    CampaignConfig config;
    std::vector<EngineAllocation> engines;
};

/**
 * Run every trial of @p c with checkpoints and behind NoCheckpoints,
 * compare the outcomes field by field and return how many trials
 * stopped early as masked.
 */
std::uint64_t
expectSameTrials(const Case &c)
{
    SCOPED_TRACE(c.workload + "/" +
                 std::string(fp::precisionName(c.precision)) + " " +
                 campaignKindName(c.kind) + " " +
                 faultModelName(c.config.model));
    auto w = workloads::makeWorkload(c.workload, c.precision, 0.1);
    NoCheckpoints plain(workloads::makeWorkload(c.workload, c.precision,
                                                0.1));
    const auto fast = makeTrialRunner(*w, c.kind, c.config,
                                      fp::OpKind::NumKinds, c.engines);
    const auto slow = makeTrialRunner(plain, c.kind, c.config,
                                      fp::OpKind::NumKinds, c.engines);
    EXPECT_FALSE(fast->golden().checkpoints.empty());
    EXPECT_TRUE(slow->golden().checkpoints.empty());
    std::uint64_t early = 0;
    for (std::uint64_t i = 0; i < c.config.trials; ++i) {
        SCOPED_TRACE("trial " + std::to_string(i));
        const TrialOutcome a = fast->runTrial(i, true);
        const TrialOutcome b = slow->runTrial(i, true);
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.sdc.maxRel, b.sdc.maxRel);
        EXPECT_EQ(a.sdc.corruptedFraction, b.sdc.corruptedFraction);
        EXPECT_EQ(a.sdc.severity, b.sdc.severity);
        EXPECT_EQ(a.hasAnatomy, b.hasAnatomy);
        EXPECT_EQ(a.anatomy.bit, b.anatomy.bit);
        EXPECT_EQ(a.anatomy.field, b.anatomy.field);
        EXPECT_EQ(a.anatomy.outcome, b.anatomy.outcome);
        EXPECT_EQ(a.anatomy.maxRel, b.anatomy.maxRel);
        EXPECT_EQ(faultSite(a.description), faultSite(b.description));
        EXPECT_EQ(b.description.find("masked-at="), std::string::npos);
        if (a.description.find("masked-at=") != std::string::npos) {
            EXPECT_EQ(a.outcome, OutcomeKind::Masked);
            ++early;
        }
    }
    return early;
}

/** The workloads of the matrix: plain, exp-heavy, buffer-swapping,
 *  in-place, convert-heavy and register-only kernels. */
const std::pair<const char *, Precision> kWorkloads[] = {
    {"mxm", Precision::Single},       {"lavamd", Precision::Double},
    {"hotspot", Precision::Half},     {"lud", Precision::Bfloat16},
    {"mxm-mixed", Precision::Single}, {"micro-fma", Precision::Half},
};

TEST(CheckpointTest, MemoryTrialsMatchUnderEveryFaultModel)
{
    for (const auto &[name, p] : kWorkloads) {
        for (const FaultModel model :
             {FaultModel::SingleBitFlip, FaultModel::DoubleBitFlip,
              FaultModel::RandomByte, FaultModel::RandomValue,
              FaultModel::WordBurst}) {
            Case c{name, p, CampaignKind::Memory, {}, {}};
            c.config.trials = 40;
            c.config.seed = 7;
            c.config.model = model;
            c.config.recordAnatomy = model == FaultModel::SingleBitFlip;
            expectSameTrials(c);
        }
    }
    // A mask proven early must show up somewhere, or the matrix
    // never exercised the early exit.
    Case c{"mxm", Precision::Single, CampaignKind::Memory, {}, {}};
    c.config.trials = 200;
    c.config.recordAnatomy = true;
    EXPECT_GT(expectSameTrials(c), 0u);
}

TEST(CheckpointTest, DatapathTrialsMatch)
{
    for (const auto &[name, p] : kWorkloads) {
        for (const bool operands : {false, true}) {
            Case c{name, p, CampaignKind::Datapath, {}, {}};
            c.config.trials = 60;
            c.config.seed = 3;
            c.config.operandStagesOnly = operands;
            const std::uint64_t early = expectSameTrials(c);
            if (std::string(name) == "mxm") {
                EXPECT_GT(early, 0u);
            }
        }
    }
}

TEST(CheckpointTest, PersistentTrialsMatchAndNeverStopEarly)
{
    for (const auto &[name, p] : kWorkloads) {
        auto w = workloads::makeWorkload(name, p, 0.1);
        const GoldenRun golden(*w, kInputSeed);
        Case c{name, p, CampaignKind::Persistent, {}, {}};
        for (const auto &engine : w->engines(golden.ops))
            c.engines.push_back({engine, 5});
        c.config.trials = 30;
        c.config.seed = 11;
        EXPECT_EQ(expectSameTrials(c), 0u);
    }
}

TEST(CheckpointTest, ParallelCampaignsShareTheArena)
{
    for (const CampaignKind kind :
         {CampaignKind::Memory, CampaignKind::Datapath}) {
        CampaignConfig config;
        config.trials = 120;
        config.recordAnatomy = kind == CampaignKind::Memory;
        auto w = workloads::makeWorkload("mxm", Precision::Single, 0.1);
        NoCheckpoints plain(
            workloads::makeWorkload("mxm", Precision::Single, 0.1));
        SupervisorConfig parallel;
        parallel.jobs = 4;
        const SupervisedCampaign fast =
            runSupervisedCampaign(*w, kind, config, parallel);
        ASSERT_TRUE(fast.error.empty()) << fast.error;
        test::expectSameResult(
            fast.result, test::acceptedCampaign(plain, kind, config));
    }
}

} // namespace
} // namespace mparch::fault

/**
 * @file
 * Fault-injection campaigns over workloads.
 *
 * A campaign repeats: restore a golden checkpoint (or reset the
 * workload with a fixed input seed), arm one fault (in memory, in a
 * datapath stage, or persistently in a "physical operator"),
 * execute, and classify the outcome against a golden run. The aggregate gives the AVF/PVF (probability that a
 * fault propagates to the output — the paper's Figures 7 and 12) and
 * an SDC corpus of output deviations that feeds the TRE analysis
 * (Figures 4, 8 and 11).
 */

#ifndef MPARCH_FAULT_CAMPAIGN_HH
#define MPARCH_FAULT_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "fault/model.hh"
#include "fp/hooks.hh"
#include "workloads/workload.hh"

namespace mparch::fault {

/** How one injected execution ended. */
enum class OutcomeKind { Masked, Sdc, Due, Detected };

/** Name of an OutcomeKind ("masked" / "sdc" / "due" / "detected"). */
const char *outcomeKindName(OutcomeKind outcome);

/**
 * Anatomy of one injected fault, for bit-position-resolved analysis
 * (recorded by memory campaigns when CampaignConfig::recordAnatomy
 * is set).
 */
struct FaultAnatomy
{
    /** Flipped bit position within the value (single-bit model). */
    int bit = -1;

    /** Field the bit belongs to in the target's format. */
    enum class Field { Sign, Exponent, MantissaHigh, MantissaLow };
    Field field = Field::MantissaLow;

    OutcomeKind outcome = OutcomeKind::Masked;

    /** Output deviation when the outcome was an SDC. */
    double maxRel = 0.0;
};

/** Classify a bit position into its IEEE754 field. */
FaultAnatomy::Field bitField(fp::Format f, int bit);

/** Name of a bit field ("sign", "exponent", "mantissa-high", ...). */
const char *bitFieldName(FaultAnatomy::Field field);

/** One silent data corruption captured for post-processing. */
struct SdcRecord
{
    /** Largest element-wise relative deviation from the golden run
     *  (infinity when the corrupted output is non-finite). */
    double maxRel = 0.0;

    /** Fraction of output elements that differ from golden. */
    double corruptedFraction = 0.0;

    /** Workload-assigned semantic severity. */
    workloads::SdcSeverity severity =
        workloads::SdcSeverity::CriticalChange;
};

/** Aggregate result of an injection campaign. */
struct CampaignResult
{
    std::uint64_t trials = 0;
    std::uint64_t masked = 0;
    std::uint64_t sdc = 0;
    std::uint64_t due = 0;

    /** Errors caught by the workload's own detector (DWC mismatch,
     *  uncorrectable ABFT checksum): recoverable, so counted apart
     *  from both SDCs and DUEs. */
    std::uint64_t detected = 0;

    /** Per-SDC deviation records (the corpus). */
    std::vector<SdcRecord> corpus;

    /** Per-trial fault anatomy (memory campaigns with
     *  CampaignConfig::recordAnatomy; empty otherwise). */
    std::vector<FaultAnatomy> anatomy;

    /** P(fault -> SDC): the AVF/PVF point estimate. */
    double
    avfSdc() const
    {
        return trials ? static_cast<double>(sdc) /
                            static_cast<double>(trials)
                      : 0.0;
    }

    /** Wilson 95% interval on avfSdc(). */
    Interval avfSdc95() const { return wilson95(sdc, trials); }

    /** P(fault -> DUE). */
    double
    avfDue() const
    {
        return trials ? static_cast<double>(due) /
                            static_cast<double>(trials)
                      : 0.0;
    }

    /** P(fault -> detected-and-recoverable). */
    double
    avfDetected() const
    {
        return trials ? static_cast<double>(detected) /
                            static_cast<double>(trials)
                      : 0.0;
    }

    /**
     * Fraction of SDCs whose deviation exceeds the tolerated
     * relative error — the FIT-reduction curve ordinate for a given
     * TRE abscissa (1.0 at TRE = 0 when every SDC deviates).
     */
    double survivingFraction(double tre) const;

    /** Fraction of SDCs at the given semantic severity. */
    double severityFraction(workloads::SdcSeverity severity) const;
};

/** Common campaign knobs. */
struct CampaignConfig
{
    std::uint64_t trials = 1000;
    FaultModel model = FaultModel::SingleBitFlip;
    std::uint64_t seed = 1;        ///< fault-sampling seed
    std::uint64_t inputSeed = 99;  ///< workload input seed

    /**
     * Datapath campaigns only: restrict strikes to the operand
     * stages (register-read values) instead of the full internal
     * datapath. Supports the operand-vs-datapath criticality
     * ablation (DESIGN.md section 5, decision 1).
     */
    bool operandStagesOnly = false;

    /**
     * Memory campaigns only: log each trial's flipped bit position,
     * IEEE754 field and outcome into CampaignResult::anatomy
     * (single-bit-flip model required).
     */
    bool recordAnatomy = false;
};

/** Hang watchdog: a trial past golden ticks x kTimeoutFactor is
 *  aborted and classified as a DUE (the fault made it hang). */
inline constexpr std::uint64_t kTimeoutFactor = 4;

/**
 * Golden-prefix checkpoints: copies of a resumable workload's state
 * (Workload::checkpointState) at evenly spaced ticks of its golden
 * run, with the op counts at each.
 *
 * A trial restores the last checkpoint before its fault instead of
 * resetting and replaying the golden prefix, and compares its state
 * with the later checkpoints to stop as soon as it is provably
 * masked (docs/performance.md, "Golden-prefix checkpoints").
 *
 * The state is cut into blocks of kBlockBytes. A checkpoint copies
 * only the blocks that changed since the previous one and shares the
 * others, so read-only inputs and output a kernel has not reached
 * yet are held once. The distinct blocks live in one contiguous
 * arena.
 *
 * Recording starts at every tick; when the budget is full it keeps
 * every other checkpoint, drops the blocks only the others used and
 * doubles the stride, so a run of T ticks ends with checkpoints at
 * ticks 0, s, 2s, ... for the smallest power of two s with
 * ceil(T / s) <= kMaxCheckpoints.
 */
class GoldenCheckpoints
{
  public:
    /** Checkpoints kept per golden run (bounds its memory). */
    static constexpr std::size_t kMaxCheckpoints = 16;

    /** Granularity at which checkpoints share unchanged state. */
    static constexpr std::size_t kBlockBytes = 512;

    /** Where the golden run stood at one checkpoint, before the
     *  checkpoint's tick executed. */
    struct Point
    {
        std::uint64_t tick = 0;
        fp::OpCounts ops{};  ///< FpContext::opCount
    };

    /** Record @p w's state and the counts of @p ops at golden tick
     *  @p tick, when one is due. Called at every tick, in order, from
     *  tick 0. */
    void record(workloads::Workload &w, std::uint64_t tick,
                const fp::FpContext &ops);

    /** No checkpoints: the workload is not resumable. */
    bool empty() const { return points_.empty(); }

    std::size_t size() const { return points_.size(); }

    const Point &operator[](std::size_t i) const { return points_[i]; }

    /** Index of the checkpoint taken at @p tick, or size(). */
    std::size_t at(std::uint64_t tick) const;

    /** Index of the last checkpoint at or before @p tick. */
    std::size_t lastAtOrBefore(std::uint64_t tick) const;

    /** Index of the last checkpoint taken before the @p index-th
     *  entered op of @p kind. */
    std::size_t lastBeforeOp(fp::OpKind kind, std::uint64_t index) const;

    /** Copy checkpoint @p i into @p w's state. */
    void restore(std::size_t i, workloads::Workload &w) const;

    /** True when @p w's state equals checkpoint @p i bit for bit. */
    bool matches(std::size_t i, workloads::Workload &w) const;

  private:
    /** Block @p j of checkpoint @p i. */
    const std::byte *
    block(std::size_t i, std::size_t j) const
    {
        return arena_.data() + refs_[i * blocks_ + j] * kBlockBytes;
    }

    /** Copy @p size bytes at @p data into a new arena block; returns
     *  its index. */
    std::size_t append(const std::byte *data, std::size_t size);

    /** Keep every other checkpoint and the blocks they use. */
    void thin();

    std::vector<Point> points_;
    std::vector<std::size_t> refs_;  ///< arena block per checkpoint block
    std::vector<std::byte> arena_;   ///< the distinct blocks
    std::size_t blocks_ = 0;         ///< blocks per state
    std::uint64_t stride_ = 1;
};

/**
 * Fault-free reference execution: output bits, tick count, op mix,
 * and checkpoints of a resumable workload.
 */
struct GoldenRun
{
    /** Execute @p w fault-free with @p input_seed and capture. */
    GoldenRun(workloads::Workload &w, std::uint64_t input_seed);

    std::vector<std::uint64_t> outputBits;
    std::uint64_t ticks = 0;
    fp::FpContext ops;  ///< per-kind dynamic operation counts

    /** Empty unless the workload declares checkpointState(). */
    GoldenCheckpoints checkpoints;
};

/**
 * Element-wise deviation of a corrupted output value from its golden
 * value: relative (|c-g|/|g|) for non-zero golden values, absolute
 * (|c|) when golden is exactly zero (a relative measure would report
 * infinity for any perturbation of a benign zero and skew TRE
 * curves), and infinity when either value is non-finite.
 */
double relativeDeviation(fp::Format f, std::uint64_t corrupted,
                         std::uint64_t golden);

/**
 * Outcome of one replayable trial, before aggregation.
 *
 * Produced by TrialRunner::runTrial(); the campaign supervisor
 * journals these one record per trial, and accumulate() folds them
 * into a CampaignResult.
 */
struct TrialOutcome
{
    OutcomeKind outcome = OutcomeKind::Masked;

    /** Deviation record; meaningful only when outcome == Sdc. */
    SdcRecord sdc;

    /** Anatomy of the injected fault, when the campaign records it. */
    bool hasAnatomy = false;
    FaultAnatomy anatomy;

    /** Human-readable fault-site description (replay/debug only;
     *  empty unless runTrial() was asked to describe): the sampled
     *  site, then `resumed-at=<tick>` (the tick the execution started
     *  from) and, for a trial that stopped early as provably masked,
     *  `masked-at=<tick>`. */
    std::string description;
};

/** Fold one trial outcome into the campaign tallies. */
void accumulate(CampaignResult &result, const TrialOutcome &trial);

/**
 * A prepared campaign that executes trials one at a time.
 *
 * Construction runs the golden reference and builds the sampling
 * tables; runTrial(i) then derives every random choice of trial i
 * from trialRng(config.seed, i) — a counter-based stream — so any
 * trial can be re-executed standalone (replay) and the set of
 * outcomes is independent of the order trials run in (worker
 * threads, resume).
 *
 * makeTrialRunner() builds one for any CampaignKind. Every campaign
 * runs its trials through the supervisor (runSupervisedCampaign,
 * fault/supervisor.hh); a default SupervisorConfig means one thread,
 * no journal and no golden-run cache.
 */
class TrialRunner
{
  public:
    virtual ~TrialRunner() = default;

    /**
     * Execute trial @p index and classify it against the golden run.
     *
     * @param describe Also fill TrialOutcome::description with the
     *                 sampled fault site (costs a string; off on the
     *                 campaign hot path).
     */
    virtual TrialOutcome runTrial(std::uint64_t index,
                                  bool describe = false) = 0;

    /**
     * A runner over workload @p w (a clone of this runner's workload)
     * that shares the immutable golden run and sampling tables
     * instead of recomputing them. Forks drive the parallel campaign
     * engine: one fork per worker thread, each over its own clone,
     * produces bit-identical trials to this runner.
     */
    virtual std::unique_ptr<TrialRunner>
    fork(workloads::Workload &w) const = 0;

    /** The fault-free reference this campaign classifies against. */
    const GoldenRun &golden() const { return *golden_; }

  protected:
    /**
     * @param golden Pre-computed golden run to share (golden-run
     *               cache, forks); null recomputes it from @p w.
     */
    TrialRunner(workloads::Workload &w, const CampaignConfig &config,
                std::shared_ptr<const GoldenRun> golden = nullptr)
        : workload_(w), config_(config), golden_(std::move(golden))
    {
        if (!golden_) {
            golden_ =
                std::make_shared<const GoldenRun>(w, config.inputSeed);
        }
    }

    workloads::Workload &workload_;
    CampaignConfig config_;
    std::shared_ptr<const GoldenRun> golden_;
};

/**
 * The golden run a campaign on @p w classifies against.
 *
 * A study runs several campaigns (memory, datapath, persistent,
 * several fault models) over the same workload; re-executing the
 * identical fault-free reference for each is pure waste. A workload
 * a factory stamped (workloads::Workload::identity()) shares one
 * process-wide golden run per (identity, input seed), executed on
 * the first request only; a hand-built workload gets a fresh run
 * every time. Device models take their op counts from here, so a
 * study executes each reference once. Thread-safe.
 */
std::shared_ptr<const GoldenRun>
goldenRunFor(workloads::Workload &w, std::uint64_t input_seed);

/**
 * goldenRunFor() for a stamped workload, after checking that
 * @p scale is its stamped scale. Only the layered benchmark
 * (layerbench/) calls it; it goes with the benchmark's
 * SupervisorConfig::useGoldenCache/scale assignments.
 */
// mparch-lint: allow(unreferenced): layerbench/ calls it (ROADMAP item 1)
std::shared_ptr<const GoldenRun>
cachedGoldenRun(workloads::Workload &w, std::uint64_t input_seed,
                double scale);

/**
 * Drop every cached golden run (tests, FP-model experiments), and
 * with them every study core::runStudy memoised: the two caches
 * share one lifetime.
 */
// mparch-lint: allow(unreferenced): layerbench/ calls it (ROADMAP item 1)
void clearGoldenRunCache();

/** Bumped by every clearGoldenRunCache(); caches built on top of
 *  the golden-run cache compare it to know when to drop out. */
std::uint64_t goldenRunCacheGeneration();

/**
 * Which campaign protocol a runner (or supervised run) executes.
 *
 *  - Memory: CAROL-FI style; corrupt a random element of a random
 *    live buffer (weighted by bit population) at a random tick.
 *  - Datapath: corrupt one datapath stage of one random dynamic
 *    operation (uniform over executed operations; stage chosen
 *    proportionally to its bit population), optionally restricted
 *    to one op kind.
 *  - Persistent: FPGA configuration memory; break one physical
 *    operator of one engine for the whole execution, sampled
 *    proportionally to each engine's unit count.
 */
enum class CampaignKind { Memory, Datapath, Persistent };

/** One engine of a spatial design and its physical operator count. */
struct EngineAllocation
{
    workloads::Engine engine;
    std::uint64_t units = 1;
};

/**
 * How many dynamic ops of a golden run with op counts @p ops a
 * datapath campaign restricted to @p kind_filter (NumKinds: any kind)
 * may strike. Exp ops are never struck themselves: their inner mul
 * and fma ops are the targets. A datapath runner needs a non-zero
 * count.
 */
std::uint64_t datapathTargets(const fp::FpContext &ops,
                              fp::OpKind kind_filter);

/**
 * Build the per-trial runner for any campaign kind (the supervisor's
 * and the replay tool's common factory).
 *
 * @param kind_filter Datapath campaigns: restrict to one op kind
 *                    (datapathTargets() must be non-zero).
 * @param engines     Persistent campaigns: engine allocations.
 * @param golden      Optional pre-computed golden run to share (the
 *                    golden-run cache); null recomputes it.
 */
std::unique_ptr<TrialRunner>
makeTrialRunner(workloads::Workload &w, CampaignKind kind,
                const CampaignConfig &config,
                fp::OpKind kind_filter = fp::OpKind::NumKinds,
                const std::vector<EngineAllocation> &engines = {},
                std::shared_ptr<const GoldenRun> golden = nullptr);

} // namespace mparch::fault

#endif // MPARCH_FAULT_CAMPAIGN_HH

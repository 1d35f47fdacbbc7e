#include "fault/campaign.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>

#include "fault/hooks.hh"

namespace mparch::fault {

using workloads::BufferView;
using workloads::ExecutionEnv;
using workloads::Workload;

const char *
outcomeKindName(OutcomeKind outcome)
{
    switch (outcome) {
      case OutcomeKind::Masked:   return "masked";
      case OutcomeKind::Sdc:      return "sdc";
      case OutcomeKind::Due:      return "due";
      case OutcomeKind::Detected: return "detected";
    }
    return "?";
}

FaultAnatomy::Field
bitField(fp::Format f, int bit)
{
    if (bit == static_cast<int>(f.signPos()))
        return FaultAnatomy::Field::Sign;
    if (bit >= static_cast<int>(f.manBits))
        return FaultAnatomy::Field::Exponent;
    if (bit >= static_cast<int>(f.manBits) / 2)
        return FaultAnatomy::Field::MantissaHigh;
    return FaultAnatomy::Field::MantissaLow;
}

const char *
bitFieldName(FaultAnatomy::Field field)
{
    switch (field) {
      case FaultAnatomy::Field::Sign:         return "sign";
      case FaultAnatomy::Field::Exponent:     return "exponent";
      case FaultAnatomy::Field::MantissaHigh: return "mantissa-high";
      case FaultAnatomy::Field::MantissaLow:  return "mantissa-low";
    }
    return "?";
}

double
CampaignResult::survivingFraction(double tre) const
{
    if (corpus.empty())
        return 0.0;
    std::uint64_t surviving = 0;
    for (const auto &rec : corpus)
        if (rec.maxRel > tre)
            ++surviving;
    return static_cast<double>(surviving) /
           static_cast<double>(corpus.size());
}

double
CampaignResult::severityFraction(workloads::SdcSeverity severity) const
{
    if (corpus.empty())
        return 0.0;
    std::uint64_t n = 0;
    for (const auto &rec : corpus)
        if (rec.severity == severity)
            ++n;
    return static_cast<double>(n) /
           static_cast<double>(corpus.size());
}

void
accumulate(CampaignResult &result, const TrialOutcome &trial)
{
    ++result.trials;
    switch (trial.outcome) {
      case OutcomeKind::Masked:
        ++result.masked;
        break;
      case OutcomeKind::Sdc:
        ++result.sdc;
        result.corpus.push_back(trial.sdc);
        break;
      case OutcomeKind::Due:
        ++result.due;
        break;
      case OutcomeKind::Detected:
        ++result.detected;
        break;
    }
    if (trial.hasAnatomy)
        result.anatomy.push_back(trial.anatomy);
}

namespace {

/** Call @p f(j, data, size) for each block j of @p w's state. */
template <typename F>
void
forEachBlock(Workload &w, F &&f)
{
    constexpr std::size_t kBlock = GoldenCheckpoints::kBlockBytes;
    std::size_t j = 0;
    for (const auto span : w.checkpointState()) {
        for (std::size_t at = 0; at < span.size(); at += kBlock)
            f(j++, span.data() + at, std::min(kBlock, span.size() - at));
    }
}

} // namespace

std::size_t
GoldenCheckpoints::append(const std::byte *data, std::size_t size)
{
    const std::size_t index = arena_.size() / kBlockBytes;
    arena_.resize(arena_.size() + kBlockBytes);
    std::memcpy(arena_.data() + index * kBlockBytes, data, size);
    return index;
}

void
GoldenCheckpoints::thin()
{
    // Mark the blocks the even checkpoints use, slide them down the
    // arena in order (a block only ever moves to a lower index), then
    // renumber the kept references.
    std::vector<bool> used(arena_.size() / kBlockBytes, false);
    for (std::size_t i = 0; i < points_.size(); i += 2)
        for (std::size_t j = 0; j < blocks_; ++j)
            used[refs_[i * blocks_ + j]] = true;
    std::vector<std::size_t> renumber(used.size());
    std::size_t kept = 0;
    for (std::size_t b = 0; b < used.size(); ++b) {
        if (!used[b])
            continue;
        if (b != kept) {
            std::memmove(arena_.data() + kept * kBlockBytes,
                         arena_.data() + b * kBlockBytes, kBlockBytes);
        }
        renumber[b] = kept++;
    }
    arena_.resize(kept * kBlockBytes);
    for (std::size_t i = 0; 2 * i < points_.size(); ++i) {
        points_[i] = points_[2 * i];
        for (std::size_t j = 0; j < blocks_; ++j)
            refs_[i * blocks_ + j] = renumber[refs_[2 * i * blocks_ + j]];
    }
    points_.resize((points_.size() + 1) / 2);
    refs_.resize(points_.size() * blocks_);
    stride_ *= 2;
}

void
GoldenCheckpoints::record(Workload &w, std::uint64_t tick,
                          const fp::FpContext &ops)
{
    if (tick % stride_ != 0)
        return;
    if (points_.size() == kMaxCheckpoints) {
        thin();
        if (tick % stride_ != 0)
            return;
    }
    const bool first = points_.empty();
    if (first) {
        // One allocation each for the usual case: a copy of the state
        // plus as many changed blocks over the whole run.
        forEachBlock(w, [&](std::size_t, const std::byte *, std::size_t) {
            ++blocks_;
        });
        arena_.reserve(2 * blocks_ * kBlockBytes);
        refs_.reserve(kMaxCheckpoints * blocks_);
        points_.reserve(kMaxCheckpoints);
    }
    const std::size_t previous = refs_.size() - (first ? 0 : blocks_);
    forEachBlock(w, [&](std::size_t j, const std::byte *data,
                        std::size_t size) {
        if (!first) {
            const std::size_t ref = refs_[previous + j];
            if (std::memcmp(arena_.data() + ref * kBlockBytes, data,
                            size) == 0) {
                refs_.push_back(ref);
                return;
            }
        }
        refs_.push_back(append(data, size));
    });
    points_.push_back({tick, ops.opCount});
}

std::size_t
GoldenCheckpoints::at(std::uint64_t tick) const
{
    if (tick % stride_ != 0 || tick / stride_ >= points_.size())
        return points_.size();
    return static_cast<std::size_t>(tick / stride_);
}

std::size_t
GoldenCheckpoints::lastAtOrBefore(std::uint64_t tick) const
{
    if (points_.empty())
        return 0;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(tick / stride_, points_.size() - 1));
}

std::size_t
GoldenCheckpoints::lastBeforeOp(fp::OpKind kind,
                                std::uint64_t index) const
{
    const auto k = static_cast<std::size_t>(kind);
    std::size_t i = points_.empty() ? 0 : points_.size() - 1;
    while (i > 0 && points_[i].ops[k] > index)
        --i;
    return i;
}

void
GoldenCheckpoints::restore(std::size_t i, Workload &w) const
{
    std::size_t count = 0;
    forEachBlock(w, [&](std::size_t j, std::byte *data, std::size_t size) {
        MPARCH_ASSERT(j < blocks_, "checkpoint state grew");
        std::memcpy(data, block(i, j), size);
        ++count;
    });
    MPARCH_ASSERT(count == blocks_, "checkpoint state shrank");
}

bool
GoldenCheckpoints::matches(std::size_t i, Workload &w) const
{
    bool equal = true;
    forEachBlock(w, [&](std::size_t j, const std::byte *data,
                        std::size_t size) {
        equal = equal && std::memcmp(data, block(i, j), size) == 0;
    });
    return equal;
}

GoldenRun::GoldenRun(Workload &w, std::uint64_t input_seed)
{
    w.reset(input_seed);
    ExecutionEnv env;
    if (!w.checkpointState().empty()) {
        env.onTick = [&](std::uint64_t tick) {
            checkpoints.record(w, tick, ops);
        };
    }
    {
        fp::FpEnvGuard guard(ops);
        w.execute(env);
    }
    ticks = env.ticks();
    const BufferView out = w.output();
    outputBits.resize(out.count);
    for (std::size_t i = 0; i < out.count; ++i)
        outputBits[i] = out.get(i);
}

double
relativeDeviation(fp::Format f, std::uint64_t corrupted,
                  std::uint64_t golden)
{
    const double g = fp::fpToDouble(f, golden);
    const double c = fp::fpToDouble(f, corrupted);
    if (!std::isfinite(c) || !std::isfinite(g))
        return std::numeric_limits<double>::infinity();
    if (g == 0.0) {
        // A relative measure would report infinity for any non-zero
        // corruption of a benign zero output; record the absolute
        // deviation instead so TRE curves stay meaningful.
        return std::abs(c);
    }
    return std::abs((c - g) / g);
}

namespace {

/** Compare the workload's output with golden and classify. */
TrialOutcome
classify(Workload &w, const GoldenRun &golden, bool hung)
{
    TrialOutcome trial;
    if (hung) {
        trial.outcome = OutcomeKind::Due;
        return trial;
    }
    if (w.detectedError()) {
        // The workload's own checker caught the corruption before
        // the output was consumed: recoverable by re-execution.
        trial.outcome = OutcomeKind::Detected;
        return trial;
    }
    const BufferView out = w.output();
    MPARCH_ASSERT(out.count == golden.outputBits.size(),
                  "output size changed between runs");
    const fp::Format f = fp::formatOf(out.precision);
    double max_rel = 0.0;
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < out.count; ++i) {
        const std::uint64_t bits = out.get(i);
        if (bits == golden.outputBits[i])
            continue;
        ++diffs;
        max_rel = std::max(
            max_rel, relativeDeviation(f, bits, golden.outputBits[i]));
    }
    if (diffs == 0) {
        trial.outcome = OutcomeKind::Masked;
        return trial;
    }
    trial.outcome = OutcomeKind::Sdc;
    trial.sdc.maxRel = max_rel;
    trial.sdc.corruptedFraction =
        static_cast<double>(diffs) / static_cast<double>(out.count);
    trial.sdc.severity = w.classifySdc(golden.outputBits);
    return trial;
}

/** How one armed execution went. */
struct ArmedRun
{
    bool hung = false;

    /** Tick the execution started from (a restored checkpoint). */
    std::uint64_t resumedAt = 0;

    /** Stopped early, provably masked, at tick maskedAt. */
    bool maskedEarly = false;
    std::uint64_t maskedAt = 0;

    /** The trial's outcome against @p golden. */
    TrialOutcome
    outcome(Workload &w, const GoldenRun &golden) const
    {
        return maskedEarly ? TrialOutcome{} : classify(w, golden, hung);
    }

    /** Append the resumed-at / masked-at fields to @p os. */
    void
    describe(std::ostream &os) const
    {
        os << " resumed-at=" << resumedAt;
        if (maskedEarly)
            os << " masked-at=" << maskedAt;
    }
};

/**
 * Run one armed execution under the watchdog.
 *
 * A resumable workload starts from golden checkpoint @p from instead
 * of reset() and tick 0; @p from must lie before the first point the
 * fault can act.
 *
 * Once @p settled says the fault can act no more, the execution
 * stops as masked at the first checkpoint tick where the state equals
 * the golden run's: from identical state the rest repeats the golden
 * run, which fits the budget. A null @p settled never stops early.
 */
ArmedRun
executeArmed(Workload &w, const GoldenRun &golden,
             const CampaignConfig &config, std::size_t from,
             DatapathFault *fault,
             const std::function<void(std::uint64_t)> &on_tick,
             const std::function<bool()> &settled)
{
    const GoldenCheckpoints &checkpoints = golden.checkpoints;
    const std::uint64_t budget = kTimeoutFactor * golden.ticks;
    ArmedRun run;
    fp::FpContext ctx;
    if (fault != nullptr)
        fault->arm(ctx);
    if (checkpoints.empty()) {
        w.reset(config.inputSeed);
    } else {
        const GoldenCheckpoints::Point &point = checkpoints[from];
        run.resumedAt = point.tick;
        checkpoints.restore(from, w);
        ctx.opCount = point.ops;
        if (fault != nullptr)
            fault->resume(point.ops);
    }

    ExecutionEnv env(run.resumedAt);
    env.tickBudget = budget;
    const bool may_stop = settled && !checkpoints.empty();
    env.onTick = [&](std::uint64_t tick) {
        if (on_tick)
            on_tick(tick);
        if (!may_stop || !settled())
            return;
        const std::size_t i = checkpoints.at(tick);
        if (i < checkpoints.size() && checkpoints.matches(i, w)) {
            run.maskedEarly = true;
            run.maskedAt = tick;
            env.stop();
        }
    };
    {
        fp::FpEnvGuard guard(ctx);
        w.execute(env);
    }
    run.hung = env.timedOut();
    return run;
}

/** CAROL-FI memory campaign, one trial at a time. */
class MemoryTrialRunner : public TrialRunner
{
  public:
    MemoryTrialRunner(Workload &w, const CampaignConfig &config,
                      std::shared_ptr<const GoldenRun> golden = nullptr)
        : TrialRunner(w, config, std::move(golden))
    {
        MPARCH_ASSERT(golden_->ticks > 0,
                      "workload must tick at least once");
    }

    std::unique_ptr<TrialRunner>
    fork(Workload &w) const override
    {
        return std::make_unique<MemoryTrialRunner>(w, config_,
                                                   golden_);
    }

    TrialOutcome
    runTrial(std::uint64_t index, bool describe) override
    {
        Rng rng = trialRng(config_.seed, index);

        // Pick the target: buffer weighted by bit population, then a
        // uniform element, then the fault model's bit pattern.
        std::vector<BufferView> views = workload_.buffers();
        std::uint64_t total_bits = 0;
        for (const auto &view : views)
            total_bits += view.bits();
        MPARCH_ASSERT(total_bits > 0, "no injectable bits");
        std::uint64_t pick = rng.below(total_bits);
        std::size_t which = 0;
        while (pick >= views[which].bits()) {
            pick -= views[which].bits();
            ++which;
        }
        const BufferView &target = views[which];
        const std::size_t element = rng.below(target.count);
        const unsigned width =
            fp::formatOf(target.precision).totalBits;
        const std::uint64_t inject_tick = rng.below(golden_->ticks);
        Rng payload_rng = rng.fork();

        int flipped_bit = -1;
        bool injected = false;
        const auto on_tick = [&](std::uint64_t tick) {
            if (tick != inject_tick)
                return;
            injected = true;
            if (config_.model == FaultModel::WordBurst) {
                // A multi-bit upset along a physical row: the same
                // bit position flips in up to 4 adjacent words
                // (JESD89A-style MBU, paper reference [8]).
                const auto bit = static_cast<unsigned>(
                    payload_rng.below(width));
                const std::size_t span =
                    std::min<std::size_t>(4, target.count - element);
                for (std::size_t k = 0; k < span; ++k) {
                    target.set(element + k,
                               flipBit(target.get(element + k), bit));
                }
                flipped_bit = static_cast<int>(bit);
                return;
            }
            const std::uint64_t before = target.get(element);
            const std::uint64_t after = applyFault(
                config_.model, payload_rng, width, before);
            if (config_.model == FaultModel::SingleBitFlip)
                flipped_bit = highestSetBit(before ^ after);
            target.set(element, after);
        };
        const ArmedRun run = executeArmed(
            workload_, *golden_, config_,
            golden_->checkpoints.lastAtOrBefore(inject_tick), nullptr,
            on_tick, [&injected] { return injected; });
        TrialOutcome trial = run.outcome(workload_, *golden_);
        if (config_.recordAnatomy && flipped_bit >= 0) {
            trial.hasAnatomy = true;
            trial.anatomy.bit = flipped_bit;
            trial.anatomy.field = bitField(
                fp::formatOf(target.precision), flipped_bit);
            trial.anatomy.outcome = trial.outcome;
            if (trial.outcome == OutcomeKind::Sdc)
                trial.anatomy.maxRel = trial.sdc.maxRel;
        }
        if (describe) {
            std::ostringstream os;
            os << "site=memory model="
               << faultModelName(config_.model) << " buffer="
               << target.name << " element=" << element
               << " tick=" << inject_tick << " bit=" << flipped_bit;
            run.describe(os);
            trial.description = os.str();
        }
        return trial;
    }
};

/** The ops of @p kind a datapath campaign with @p kind_filter may
 *  strike in a golden run with op counts @p ops. */
std::uint64_t
targetsOfKind(const fp::FpContext &ops, fp::OpKind kind,
              fp::OpKind kind_filter)
{
    if (kind == fp::OpKind::Exp ||
        (kind_filter != fp::OpKind::NumKinds && kind != kind_filter))
        return 0;
    return ops.count(kind);
}

/** Transient functional-unit campaign, one trial at a time. */
class DatapathTrialRunner : public TrialRunner
{
  public:
    DatapathTrialRunner(Workload &w, const CampaignConfig &config,
                        fp::OpKind kind_filter,
                        std::shared_ptr<const GoldenRun> golden = nullptr)
        : TrialRunner(w, config, std::move(golden))
    {
        // Candidate kinds and their dynamic op counts.
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(fp::OpKind::NumKinds);
             ++k) {
            const auto kind = static_cast<fp::OpKind>(k);
            const std::uint64_t n = targetsOfKind(golden_->ops, kind,
                                                  kind_filter);
            if (n == 0)
                continue;
            kinds_.emplace_back(kind, n);
            totalOps_ += n;
        }
        MPARCH_ASSERT(totalOps_ > 0, "no operations to strike");
    }

    std::unique_ptr<TrialRunner>
    fork(Workload &w) const override
    {
        auto copy =
            std::unique_ptr<DatapathTrialRunner>(
                new DatapathTrialRunner(w, config_, golden_));
        copy->kinds_ = kinds_;
        copy->totalOps_ = totalOps_;
        return copy;
    }

    TrialOutcome
    runTrial(std::uint64_t index, bool describe) override
    {
        Rng rng = trialRng(config_.seed, index);
        const fp::Format f = fp::formatOf(workload_.precision());

        // Uniform over dynamic operations...
        std::uint64_t pick = rng.below(totalOps_);
        std::size_t which = 0;
        while (pick >= kinds_[which].second) {
            pick -= kinds_[which].second;
            ++which;
        }
        const fp::OpKind kind = kinds_[which].first;
        const std::uint64_t op_index =
            rng.below(kinds_[which].second);

        // ...then a stage weighted by its bit population (optionally
        // restricted to the operand-read stages).
        std::size_t stage_count = 0;
        const auto &stages = stagesFor(kind, stage_count);
        const auto is_operand = [](fp::Stage s) {
            return s == fp::Stage::OperandA ||
                   s == fp::Stage::OperandB ||
                   s == fp::Stage::OperandC;
        };
        std::uint64_t weight_sum = 0;
        for (std::size_t s = 0; s < stage_count; ++s) {
            if (config_.operandStagesOnly && !is_operand(stages[s]))
                continue;
            weight_sum += stageWidthEstimate(stages[s], f);
        }
        std::uint64_t spick = rng.below(weight_sum);
        std::size_t si = 0;
        for (;; ++si) {
            if (config_.operandStagesOnly && !is_operand(stages[si]))
                continue;
            const std::uint64_t sw = stageWidthEstimate(stages[si], f);
            if (spick < sw)
                break;
            spick -= sw;
        }
        const double bit_frac = rng.uniform();
        OneShotDatapathHook hook(kind, op_index, stages[si], bit_frac);

        const ArmedRun run = executeArmed(
            workload_, *golden_, config_,
            golden_->checkpoints.lastBeforeOp(kind, op_index), &hook,
            nullptr, [&hook] { return hook.exhausted(); });
        TrialOutcome trial = run.outcome(workload_, *golden_);
        if (describe) {
            std::ostringstream os;
            os << "site=datapath kind=" << fp::opKindName(kind)
               << " dynamic-index=" << op_index << " stage="
               << fp::stageName(stages[si])
               << " bit-frac=" << bit_frac;
            run.describe(os);
            trial.description = os.str();
        }
        return trial;
    }

  private:
    /** Fork constructor: sampling tables are copied by fork(). */
    DatapathTrialRunner(Workload &w, const CampaignConfig &config,
                        std::shared_ptr<const GoldenRun> golden)
        : TrialRunner(w, config, std::move(golden))
    {
    }

    std::vector<std::pair<fp::OpKind, std::uint64_t>> kinds_;
    std::uint64_t totalOps_ = 0;
};

/** Persistent (configuration-upset) campaign, one trial at a time. */
class PersistentTrialRunner : public TrialRunner
{
  public:
    PersistentTrialRunner(Workload &w, const CampaignConfig &config,
                          std::vector<EngineAllocation> engines,
                          std::shared_ptr<const GoldenRun> golden = nullptr)
        : TrialRunner(w, config, std::move(golden)),
          engines_(std::move(engines))
    {
        for (const auto &alloc : engines_)
            totalUnits_ += alloc.units;
        MPARCH_ASSERT(totalUnits_ > 0, "circuit has no physical units");
    }

    std::unique_ptr<TrialRunner>
    fork(Workload &w) const override
    {
        return std::make_unique<PersistentTrialRunner>(
            w, config_, engines_, golden_);
    }

    TrialOutcome
    runTrial(std::uint64_t index, bool describe) override
    {
        Rng rng = trialRng(config_.seed, index);
        const fp::Format f = fp::formatOf(workload_.precision());

        // A configuration upset strikes a physical operator; sample
        // proportionally to each engine's instance count.
        std::uint64_t pick = rng.below(totalUnits_);
        std::size_t which = 0;
        while (pick >= engines_[which].units) {
            pick -= engines_[which].units;
            ++which;
        }
        const auto &alloc = engines_[which];
        const fp::OpKind kind = alloc.engine.kind;
        const std::uint64_t unit = rng.below(alloc.units);

        std::size_t stage_count = 0;
        const auto &stages = stagesFor(kind, stage_count);
        std::uint64_t weight_sum = 0;
        for (std::size_t s = 0; s < stage_count; ++s)
            weight_sum += stageWidthEstimate(stages[s], f);
        std::uint64_t spick = rng.below(weight_sum);
        std::size_t si = 0;
        while (spick >= stageWidthEstimate(stages[si], f)) {
            spick -= stageWidthEstimate(stages[si], f);
            ++si;
        }
        // Configuration upsets rewire logic: model as stuck-at of
        // either polarity, with an always-flip tail for upsets in
        // inverting logic (the gate computes the complement).
        const std::uint64_t mode_pick = rng.below(3);
        const PersistMode mode =
            mode_pick == 0 ? PersistMode::Flip
            : mode_pick == 1 ? PersistMode::StuckAt0
                             : PersistMode::StuckAt1;
        const double bit_frac = rng.uniform();
        PersistentDatapathHook hook(kind, alloc.units, unit,
                                    stages[si], bit_frac,
                                    alloc.engine.period,
                                    alloc.engine.lo, alloc.engine.hi,
                                    mode);

        // The broken unit first acts on op `unit` of its kind (or
        // later, inside an engine window); a persistent fault keeps
        // acting, so the run never stops early.
        const ArmedRun run = executeArmed(
            workload_, *golden_, config_,
            golden_->checkpoints.lastBeforeOp(kind, unit), &hook,
            nullptr, nullptr);
        TrialOutcome trial = run.outcome(workload_, *golden_);
        if (describe) {
            std::ostringstream os;
            os << "site=persistent engine=" << alloc.engine.name
               << " kind=" << fp::opKindName(kind) << " unit="
               << unit << "/" << alloc.units << " stage="
               << fp::stageName(stages[si]) << " mode="
               << persistModeName(mode) << " bit-frac=" << bit_frac;
            run.describe(os);
            trial.description = os.str();
        }
        return trial;
    }

  private:
    std::vector<EngineAllocation> engines_;
    std::uint64_t totalUnits_ = 0;
};

/** Golden-run cache key: a stamped workload plus its input seed. */
struct GoldenKey
{
    workloads::WorkloadIdentity identity;
    std::uint64_t inputSeed;

    auto operator<=>(const GoldenKey &) const = default;
};

std::mutex g_goldenCacheMu;
std::map<GoldenKey, std::shared_ptr<const GoldenRun>> g_goldenCache;
std::atomic<std::uint64_t> g_goldenCacheGeneration{0};

} // namespace

std::shared_ptr<const GoldenRun>
goldenRunFor(Workload &w, std::uint64_t input_seed)
{
    const workloads::WorkloadIdentity *identity = w.identity();
    if (!identity)
        return std::make_shared<const GoldenRun>(w, input_seed);
    const GoldenKey key{*identity, input_seed};
    // Compute under the lock: concurrent requests for the same key
    // would otherwise duplicate the (expensive) reference execution,
    // and campaigns only parallelise trials, not golden runs.
    std::lock_guard<std::mutex> lock(g_goldenCacheMu);
    auto it = g_goldenCache.find(key);
    if (it == g_goldenCache.end()) {
        it = g_goldenCache
                 .emplace(key, std::make_shared<const GoldenRun>(
                                   w, input_seed))
                 .first;
    }
    return it->second;
}

std::shared_ptr<const GoldenRun>
cachedGoldenRun(Workload &w, std::uint64_t input_seed, double scale)
{
    MPARCH_ASSERT(w.identity() && w.identity()->scale == scale,
                  "cachedGoldenRun needs a workload stamped at this "
                  "scale");
    return goldenRunFor(w, input_seed);
}

void
clearGoldenRunCache()
{
    std::lock_guard<std::mutex> lock(g_goldenCacheMu);
    g_goldenCache.clear();
    ++g_goldenCacheGeneration;
}

std::uint64_t
goldenRunCacheGeneration()
{
    return g_goldenCacheGeneration.load();
}

std::uint64_t
datapathTargets(const fp::FpContext &ops, fp::OpKind kind_filter)
{
    std::uint64_t n = 0;
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(fp::OpKind::NumKinds); ++k)
        n += targetsOfKind(ops, static_cast<fp::OpKind>(k), kind_filter);
    return n;
}

std::unique_ptr<TrialRunner>
makeTrialRunner(Workload &w, CampaignKind kind,
                const CampaignConfig &config, fp::OpKind kind_filter,
                const std::vector<EngineAllocation> &engines,
                std::shared_ptr<const GoldenRun> golden)
{
    switch (kind) {
      case CampaignKind::Memory:
        return std::make_unique<MemoryTrialRunner>(w, config,
                                                   std::move(golden));
      case CampaignKind::Datapath:
        return std::make_unique<DatapathTrialRunner>(
            w, config, kind_filter, std::move(golden));
      case CampaignKind::Persistent:
        return std::make_unique<PersistentTrialRunner>(
            w, config, engines, std::move(golden));
    }
    panic("unknown campaign kind");
}

} // namespace mparch::fault

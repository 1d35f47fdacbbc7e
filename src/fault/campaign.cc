#include "fault/campaign.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>

#include "common/memo.hh"
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

namespace {

/**
 * The value of a binary32 pattern as a double: exact for a finite
 * pattern, non-finite for an infinite or NaN one. The cast is exact
 * in every host mode for a normal, infinite or NaN float; a subnormal
 * is its integer significand times 2^-149 instead, which no
 * denormals-are-zero mode can flush.
 */
[[gnu::always_inline]] inline double
singleValue(std::uint32_t x)
{
    if ((x & 0x7f800000u) != 0)
        return std::bit_cast<float>(x);
    const double v = static_cast<double>(x & 0x7fffffu) * 0x1p-149;
    return x >> 31 ? -v : v;
}

/** singleValue for a binary16 pattern: its fields moved into a
 *  double's, or its significand times 2^-24 for a subnormal. */
[[gnu::always_inline]] inline double
halfValue(std::uint64_t h)
{
    const auto mag = static_cast<std::uint32_t>(h & 0x7fffu);
    double v;
    if (mag >= 0x7c00u) {
        v = mag == 0x7c00u ? std::numeric_limits<double>::infinity()
                           : std::numeric_limits<double>::quiet_NaN();
    } else if (mag >= 0x0400u) {
        // Exponent bias 15 -> 1023: 1008 added to the field.
        v = std::bit_cast<double>((std::uint64_t{mag} << 42) +
                                  (std::uint64_t{1008} << 52));
    } else {
        v = static_cast<double>(mag) * 0x1p-24;
    }
    return (h >> 15) & 1 ? -v : v;
}

/** relativeDeviation with each value read by @p widen. */
template <class Widen>
[[gnu::always_inline]] inline double
deviation(Widen widen, std::uint64_t corrupted, std::uint64_t golden)
{
    const double g = widen(golden);
    const double c = widen(corrupted);
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

} // namespace

double
relativeDeviation(fp::Format f, std::uint64_t corrupted,
                  std::uint64_t golden)
{
    // The formats of every workload widen without the conversion op
    // (fp::fpToDouble), which enters an op and reads the host mode.
    if (f == fp::kSingle) {
        return deviation([](std::uint64_t x) {
            return singleValue(static_cast<std::uint32_t>(x));
        }, corrupted, golden);
    }
    if (f == fp::kDouble) {
        return deviation([](std::uint64_t x) {
            return std::bit_cast<double>(x);
        }, corrupted, golden);
    }
    if (f == fp::kHalf)
        return deviation(halfValue, corrupted, golden);
    if (f == fp::kBfloat16) {
        return deviation([](std::uint64_t x) {
            return singleValue(static_cast<std::uint32_t>(x) << 16);
        }, corrupted, golden);
    }
    return deviation([f](std::uint64_t x) { return fp::fpToDouble(f, x); },
                     corrupted, golden);
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

/**
 * Draw an index in [0, n) with probability proportional to
 * @p weight(i), from one draw below the total weight. Every weighted
 * choice of a trial goes through here.
 */
template <class Weight>
std::size_t
weightedPick(Rng &rng, std::size_t n, Weight weight)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += weight(i);
    std::uint64_t pick = rng.below(total);
    std::size_t i = 0;
    while (pick >= weight(i))
        pick -= weight(i++);
    return i;
}

/** A datapath stage of an op of @p kind in format @p f, weighted by
 *  its bit population; only the operand-read stages when
 *  @p operand_only. */
fp::Stage
pickStage(Rng &rng, fp::OpKind kind, fp::Format f, bool operand_only)
{
    std::size_t stage_count = 0;
    const auto &stages = stagesFor(kind, stage_count);
    return stages[weightedPick(rng, stage_count, [&](std::size_t s) {
        const bool operand = stages[s] == fp::Stage::OperandA ||
                             stages[s] == fp::Stage::OperandB ||
                             stages[s] == fp::Stage::OperandC;
        return operand_only && !operand ? 0u
                                        : stageWidthEstimate(stages[s], f);
    })];
}

/** CAROL-FI memory trial: flip a live buffer element at a random
 *  tick. */
TrialOutcome
memoryTrial(Workload &w, const GoldenRun &golden,
            const CampaignConfig &config, Rng &rng, bool describe)
{
    // Pick the target: buffer weighted by bit population, then a
    // uniform element, then the fault model's bit pattern.
    const std::vector<BufferView> views = w.buffers();
    const BufferView &target = views[weightedPick(
        rng, views.size(), [&](std::size_t i) { return views[i].bits(); })];
    const std::size_t element = rng.below(target.count);
    const unsigned width = fp::formatOf(target.precision).totalBits;
    const std::uint64_t inject_tick = rng.below(golden.ticks);
    Rng payload_rng = rng.fork();

    int flipped_bit = -1;
    bool injected = false;
    const auto on_tick = [&](std::uint64_t tick) {
        if (tick != inject_tick)
            return;
        injected = true;
        if (config.model == FaultModel::WordBurst) {
            // A multi-bit upset along a physical row: the same bit
            // position flips in up to 4 adjacent words (JESD89A-style
            // MBU, paper reference [8]).
            const auto bit =
                static_cast<unsigned>(payload_rng.below(width));
            const std::size_t span =
                std::min<std::size_t>(4, target.count - element);
            for (std::size_t k = 0; k < span; ++k)
                target.set(element + k, flipBit(target.get(element + k), bit));
            flipped_bit = static_cast<int>(bit);
            return;
        }
        const std::uint64_t before = target.get(element);
        const std::uint64_t after =
            applyFault(config.model, payload_rng, width, before);
        if (config.model == FaultModel::SingleBitFlip)
            flipped_bit = highestSetBit(before ^ after);
        target.set(element, after);
    };
    const ArmedRun run = executeArmed(
        w, golden, config, golden.checkpoints.lastAtOrBefore(inject_tick),
        nullptr, on_tick, [&injected] { return injected; });
    TrialOutcome trial = run.outcome(w, golden);
    if (config.recordAnatomy && flipped_bit >= 0) {
        trial.hasAnatomy = true;
        trial.anatomy.bit = flipped_bit;
        trial.anatomy.field =
            bitField(fp::formatOf(target.precision), flipped_bit);
        trial.anatomy.outcome = trial.outcome;
        if (trial.outcome == OutcomeKind::Sdc)
            trial.anatomy.maxRel = trial.sdc.maxRel;
    }
    if (describe) {
        std::ostringstream os;
        os << "site=memory model=" << faultModelName(config.model)
           << " buffer=" << target.name << " element=" << element
           << " tick=" << inject_tick << " bit=" << flipped_bit;
        run.describe(os);
        trial.description = os.str();
    }
    return trial;
}

/** Transient functional-unit trial: strike one stage of one dynamic
 *  op, drawn from @p kinds (op kinds by dynamic count). */
TrialOutcome
datapathTrial(Workload &w, const GoldenRun &golden,
              const CampaignConfig &config,
              const std::vector<std::pair<fp::OpKind, std::uint64_t>> &kinds,
              Rng &rng, bool describe)
{
    // Uniform over dynamic operations, then a stage weighted by its
    // bit population.
    const auto &[kind, count] = kinds[weightedPick(
        rng, kinds.size(), [&](std::size_t i) { return kinds[i].second; })];
    const std::uint64_t op_index = rng.below(count);
    const fp::Stage stage = pickStage(rng, kind, fp::formatOf(w.precision()),
                                      config.operandStagesOnly);
    const double bit_frac = rng.uniform();
    OneShotDatapathHook hook(kind, op_index, stage, bit_frac);

    const ArmedRun run = executeArmed(
        w, golden, config, golden.checkpoints.lastBeforeOp(kind, op_index),
        &hook, nullptr, [&hook] { return hook.exhausted(); });
    TrialOutcome trial = run.outcome(w, golden);
    if (describe) {
        std::ostringstream os;
        os << "site=datapath kind=" << fp::opKindName(kind)
           << " dynamic-index=" << op_index
           << " stage=" << fp::stageName(stage) << " bit-frac=" << bit_frac;
        run.describe(os);
        trial.description = os.str();
    }
    return trial;
}

/** Persistent (configuration-upset) trial: break one physical
 *  operator of one of @p engines for the whole execution. */
TrialOutcome
persistentTrial(Workload &w, const GoldenRun &golden,
                const CampaignConfig &config,
                const std::vector<EngineAllocation> &engines, Rng &rng,
                bool describe)
{
    // A configuration upset strikes a physical operator; sample
    // proportionally to each engine's instance count.
    const EngineAllocation &alloc = engines[weightedPick(
        rng, engines.size(), [&](std::size_t i) { return engines[i].units; })];
    const fp::OpKind kind = alloc.engine.kind;
    const std::uint64_t unit = rng.below(alloc.units);
    const fp::Stage stage = pickStage(rng, kind, fp::formatOf(w.precision()),
                                      /*operand_only=*/false);
    // Configuration upsets rewire logic: model as stuck-at of either
    // polarity, with an always-flip tail for upsets in inverting logic
    // (the gate computes the complement).
    const std::uint64_t mode_pick = rng.below(3);
    const PersistMode mode = mode_pick == 0   ? PersistMode::Flip
                             : mode_pick == 1 ? PersistMode::StuckAt0
                                              : PersistMode::StuckAt1;
    const double bit_frac = rng.uniform();
    PersistentDatapathHook hook(kind, alloc.units, unit, stage, bit_frac,
                                alloc.engine.period, alloc.engine.lo,
                                alloc.engine.hi, mode);

    // The broken unit first acts on op `unit` of its kind (or later,
    // inside an engine window); a persistent fault keeps acting, so
    // the run never stops early.
    const ArmedRun run = executeArmed(
        w, golden, config, golden.checkpoints.lastBeforeOp(kind, unit),
        &hook, nullptr, nullptr);
    TrialOutcome trial = run.outcome(w, golden);
    if (describe) {
        std::ostringstream os;
        os << "site=persistent engine=" << alloc.engine.name
           << " kind=" << fp::opKindName(kind) << " unit=" << unit << "/"
           << alloc.units << " stage=" << fp::stageName(stage)
           << " mode=" << persistModeName(mode) << " bit-frac=" << bit_frac
           << " hits=" << hook.hits();
        run.describe(os);
        trial.description = os.str();
    }
    return trial;
}

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

/** Golden-run cache key: a stamped workload plus its input seed. */
struct GoldenKey
{
    workloads::WorkloadIdentity identity;
    std::uint64_t inputSeed;

    auto operator<=>(const GoldenKey &) const = default;
};

/** Golden runs of stamped workloads, until common::clearMemos(). */
common::Memo<GoldenKey, GoldenRun> g_goldenRuns;

} // namespace

std::shared_ptr<const GoldenRun>
goldenRunFor(Workload &w, std::uint64_t input_seed)
{
    const workloads::WorkloadIdentity *identity = w.identity();
    if (!identity)
        return std::make_shared<const GoldenRun>(w, input_seed);
    return g_goldenRuns.get(GoldenKey{*identity, input_seed},
                            [&] { return GoldenRun(w, input_seed); });
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
    common::clearMemos();
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

TrialRunner::TrialRunner(Workload &w, CampaignKind kind,
                         const CampaignConfig &config,
                         fp::OpKind kind_filter,
                         std::vector<EngineAllocation> engines,
                         std::shared_ptr<const GoldenRun> golden)
    : workload_(w), kind_(kind), config_(config),
      golden_(golden ? std::move(golden)
                     : std::make_shared<const GoldenRun>(w,
                                                         config.inputSeed))
{
    switch (kind_) {
      case CampaignKind::Memory:
        MPARCH_ASSERT(golden_->ticks > 0,
                      "workload must tick at least once");
        break;
      case CampaignKind::Datapath:
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(fp::OpKind::NumKinds); ++k) {
            const auto op = static_cast<fp::OpKind>(k);
            if (const auto n = targetsOfKind(golden_->ops, op, kind_filter))
                kinds_.emplace_back(op, n);
        }
        MPARCH_ASSERT(!kinds_.empty(), "no operations to strike");
        break;
      case CampaignKind::Persistent:
        engines_ = std::move(engines);
        MPARCH_ASSERT(std::any_of(engines_.begin(), engines_.end(),
                                  [](const EngineAllocation &e) {
                                      return e.units > 0;
                                  }),
                      "circuit has no physical units");
        break;
    }
}

TrialOutcome
TrialRunner::runTrial(Workload &w, std::uint64_t index,
                      bool describe) const
{
    Rng rng = trialRng(config_.seed, index);
    switch (kind_) {
      case CampaignKind::Memory:
        return memoryTrial(w, *golden_, config_, rng, describe);
      case CampaignKind::Datapath:
        return datapathTrial(w, *golden_, config_, kinds_, rng, describe);
      case CampaignKind::Persistent:
        return persistentTrial(w, *golden_, config_, engines_, rng,
                               describe);
    }
    panic("unknown campaign kind");
}

std::unique_ptr<TrialRunner>
makeTrialRunner(Workload &w, CampaignKind kind,
                const CampaignConfig &config, fp::OpKind kind_filter,
                const std::vector<EngineAllocation> &engines,
                std::shared_ptr<const GoldenRun> golden)
{
    return std::make_unique<TrialRunner>(w, kind, config, kind_filter,
                                         engines, std::move(golden));
}

} // namespace mparch::fault

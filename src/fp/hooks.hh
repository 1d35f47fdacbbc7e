/**
 * @file
 * Datapath observation and perturbation hooks.
 *
 * The paper distinguishes faults in *data* (register/memory bits) from
 * faults in *operations* (the functional unit's internal state: aligned
 * significands, the multiplier's partial-product array, the pre-round
 * sum, the exponent logic). To reproduce criticality results such as
 * "ADD and FMA have a lower FIT reduction than MUL because operands
 * must be normalised before being added", the softfloat core exposes
 * every such internal stage through a hook that can flip bits there.
 *
 * A thread-local FpContext carries the installed hook and per-opcode
 * counters; workloads run inside an FpEnvGuard so the injector can
 * attach hooks without any plumbing through workload code.
 */

#ifndef MPARCH_FP_HOOKS_HH
#define MPARCH_FP_HOOKS_HH

#include <array>
#include <cstdint>

#include "common/bits.hh"

namespace mparch::fp {

/** Operation kinds instrumented by the softfloat core. */
enum class OpKind
{
    Add, Sub, Mul, Fma, Div, Sqrt, Exp, Convert,
    NumKinds,
};

/** Name of an OpKind ("add", "mul", ...). */
const char *opKindName(OpKind op);

/** Internal datapath stages at which a fault can strike. */
enum class Stage
{
    OperandA,     ///< first operand bit pattern, as read
    OperandB,     ///< second operand bit pattern, as read
    OperandC,     ///< third operand (FMA addend), as read
    AlignedSigA,  ///< significand A after exponent alignment
    AlignedSigB,  ///< significand B after exponent alignment
    ProductLo,    ///< low 64 bits of the exact product
    ProductHi,    ///< high 64 bits of the exact product
    PreRoundSig,  ///< normalised significand before rounding
    ExponentLogic,///< unbiased result exponent before packing
    Result,       ///< packed result bit pattern
    NumStages,
};

/** Name of a Stage ("operand-a", "product-lo", ...). */
const char *stageName(Stage stage);

/**
 * What a fault does to the one bit it owns in a struck stage value:
 * flip it (a transient strike, or a persistent upset in inverting
 * logic), or hold it at 0 or 1 (a stuck-at configuration upset).
 */
enum class BitRule { Flip, StuckAt0, StuckAt1 };

/** One counter per operation kind. */
using OpCounts =
    std::array<std::uint64_t, static_cast<std::size_t>(OpKind::NumKinds)>;

/**
 * Perturbation callback invoked by the softfloat core at each stage.
 *
 * The default implementation is the identity; fault injectors derive
 * from this and flip bits when their trigger condition (op index,
 * stage, bit) is met. A hook installed alone sees every stage of
 * every op; one installed with a StrikeTrigger (FpContext::strike)
 * sees only the ops the trigger strikes, and none at all when the
 * trigger carries the fault's bit rule (its stage is set): the core
 * then applies the rule itself.
 */
class FpHook
{
  public:
    virtual ~FpHook() = default;

    /**
     * Possibly perturb a datapath value.
     *
     * @param op     The operation being executed.
     * @param stage  Which internal stage @p value represents.
     * @param width  Number of meaningful low bits in @p value.
     * @param value  The fault-free datapath value.
     * @return The (possibly corrupted) value to continue with.
     */
    virtual std::uint64_t
    perturb(OpKind op, Stage stage, unsigned width, std::uint64_t value)
    {
        (void)op; (void)stage; (void)width;
        return value;
    }
};

/**
 * Which dynamic operations an installed hook perturbs, and how, as
 * data.
 *
 * A fault strikes one dynamic op (one-shot: the index-th op of a
 * kind) or every op a broken unit executes (persistent: ops of a kind
 * whose index falls on `unit` modulo `units`, optionally only inside
 * an engine's window [lo, hi) of every `period` ops). Holding that
 * trigger as data lets detail::enterOp() decide per op, without
 * calling the hook, whether the op is struck: only struck ops run the
 * stage-by-stage softfloat path, every other op may take the host
 * FPU.
 *
 * A fault that says where it strikes (`stage` set) also carries its
 * bit rule: hit() is what its hook does to a struck op's value at
 * that stage, counting it in `hits`, and every other stage passes
 * unchanged. Armed, the fault's hook is then never called: the
 * softfloat bodies (detail::touch) and the host routes of struck ops
 * (detail::hostStruck and the fma chain, through one rule in
 * host.cc) call hit() themselves.
 *
 * The state advances once per op entry, which is the op's OperandA
 * visit. `current` is the dynamic index of the last entered op
 * within its kind; a one-shot trigger shares it across kinds, so an
 * op nested inside another (fpExp's inner fmas) moves it for the
 * outer op's later stages too, exactly as the counting hooks did.
 */
struct StrikeTrigger
{
    enum class Mode { OneShot, Persistent };

    Mode mode = Mode::OneShot;
    OpKind kind = OpKind::NumKinds;
    std::uint64_t index = 0;   ///< one-shot: dynamic instance struck
    std::uint64_t units = 1;   ///< persistent: physical units of kind
    std::uint64_t unit = 0;    ///< persistent: the broken unit
    std::uint64_t period = 0;  ///< persistent: window period (0 = all)
    std::uint64_t lo = 0;      ///< persistent: window start
    std::uint64_t hi = 0;      ///< persistent: window end
    /** The one stage a struck op's fault perturbs, when the fault
     *  says so (NumStages: any, and no bit rule). */
    Stage stage = Stage::NumStages;
    double bitFrac = 0;        ///< the struck bit / the stage's width
    BitRule rule = BitRule::Flip;

    OpCounts seen{};           ///< entered ops per kind
    std::uint64_t current = 0;
    bool inWindow = false;
    /** Struck stage values the rule was applied to (hit()), changed
     *  or not (one-shot: 1 once the fault was placed). */
    std::uint64_t hits = 0;

    /** Strike the @p index-th dynamic op of @p kind, once. */
    static StrikeTrigger
    oneShot(OpKind kind, std::uint64_t index)
    {
        StrikeTrigger t;
        t.kind = kind;
        t.index = index;
        return t;
    }

    /** Strike every op of @p kind that the broken unit executes. */
    static StrikeTrigger
    persistent(OpKind kind, std::uint64_t units, std::uint64_t unit,
               std::uint64_t period, std::uint64_t lo, std::uint64_t hi)
    {
        StrikeTrigger t;
        t.mode = Mode::Persistent;
        t.kind = kind;
        t.units = units ? units : 1;
        t.unit = unit % t.units;
        t.period = period;
        t.lo = lo;
        t.hi = hi;
        return t;
    }

    /** Advance past the entry of one op of kind @p op. */
    void
    enter(OpKind op)
    {
        const auto k = static_cast<std::size_t>(op);
        if (mode == Mode::OneShot) {
            current = seen[k]++;
        } else if (op == kind) {
            current = seen[k]++;
            inWindow = period == 0 || (current % period >= lo &&
                                       current % period < hi);
        }
    }

    /** Whether the stages of the op of kind @p op in flight are hit. */
    bool
    strikes(OpKind op) const
    {
        if (op != kind)
            return false;
        if (mode == Mode::OneShot) {
            return hits == 0 && current == index &&
                   seen[static_cast<std::size_t>(op)] == index + 1;
        }
        return inWindow && current % units == unit;
    }

    /**
     * How many of the next @p n entries of kind @p op strikes() would
     * find un-struck, counted from the first: the struck entry's
     * offset, or @p n when none of them is struck.
     */
    std::uint64_t
    unstruck(OpKind op, std::uint64_t n) const
    {
        if (op != kind || n == 0)
            return n;
        // Entry i of the run gets current == seen + i.
        const std::uint64_t first = seen[static_cast<std::size_t>(op)];
        if (mode == Mode::OneShot) {
            if (hits != 0 || index < first)
                return n;
            return index - first < n ? index - first : n;
        }
        // The broken unit's entries are first + i for i = (unit -
        // first) mod units, then every units-th; step through those
        // alone, carrying the phase within the window period.
        std::uint64_t i = (unit + units - first % units) % units;
        if (period == 0)
            return i < n ? i : n;
        if (lo >= hi)
            return n;
        std::uint64_t phase = (first + i) % period;
        const std::uint64_t step = units % period;
        for (; i < n; i += units) {
            if (phase >= lo && phase < hi)
                return i;
            phase += step;
            if (phase >= period)
                phase -= period;
        }
        return n;
    }

    /** Advance past @p m entries of kind @p op: @p m calls of enter. */
    void
    skip(OpKind op, std::uint64_t m)
    {
        if (m == 0 || (mode == Mode::Persistent && op != kind))
            return;
        const auto k = static_cast<std::size_t>(op);
        seen[k] += m;
        current = seen[k] - 1;
        if (mode == Mode::Persistent) {
            inWindow = period == 0 || (current % period >= lo &&
                                       current % period < hi);
        }
    }

    /**
     * One-shot: true once no later op can be struck, because the
     * fault was placed (hits) or an op of its kind past the struck one
     * already entered (strikes() needs seen == index + 1, and seen
     * only grows).
     */
    bool
    exhausted() const
    {
        return mode == Mode::OneShot &&
               (hits != 0 ||
                seen[static_cast<std::size_t>(kind)] > index + 1);
    }

    /** The bit a struck stage value of @p width bits loses. */
    unsigned
    bit(unsigned width) const
    {
        const auto b = static_cast<unsigned>(bitFrac * width);
        return b >= width ? width - 1 : b;
    }

    /** The fault's rule on the value @p value of a stage @p width
     *  bits wide, uncounted. */
    std::uint64_t
    corrupt(unsigned width, std::uint64_t value) const
    {
        const unsigned b = bit(width);
        switch (rule) {
          case BitRule::Flip:     return flipBit(value, b);
          case BitRule::StuckAt0: return setBit(value, b, false);
          case BitRule::StuckAt1: return setBit(value, b, true);
        }
        return value;
    }

    /** The struck stage value @p value, @p width bits wide, counted
     *  in hits and put through corrupt(). */
    std::uint64_t
    hit(unsigned width, std::uint64_t value)
    {
        ++hits;
        return corrupt(width, value);
    }
};

/**
 * Per-thread floating-point execution environment.
 *
 * Counts operations by kind (used by the architecture models to build
 * instruction mixes and resource inventories), owns an optional
 * perturbation hook and the strike trigger that aims it. Every op
 * rounds to nearest-even, the hardware default of every studied
 * device, so the context carries no rounding mode.
 *
 * With @c strike null, an installed hook sees every stage of every
 * op. With @c strike set, only the ops it strikes reach the hook.
 */
struct FpContext
{
    FpHook *hook = nullptr;
    StrikeTrigger *strike = nullptr;
    /** Ops per kind; also the entries (StrikeTrigger::seen) of a
     *  trigger installed in this context from its first op. */
    OpCounts opCount{};

    /** Total number of FP operations executed in this context. */
    std::uint64_t
    totalOps() const
    {
        std::uint64_t sum = 0;
        for (auto c : opCount)
            sum += c;
        return sum;
    }

    /** Count for one opcode. */
    std::uint64_t
    count(OpKind op) const
    {
        return opCount[static_cast<std::size_t>(op)];
    }
};

/** Currently installed context, or nullptr (uninstrumented). */
FpContext *currentContext();

/**
 * RAII installer for an FpContext.
 *
 * Saves and restores the previous context so guards nest naturally.
 */
class FpEnvGuard
{
  public:
    explicit FpEnvGuard(FpContext &ctx);
    ~FpEnvGuard();

    FpEnvGuard(const FpEnvGuard &) = delete;
    FpEnvGuard &operator=(const FpEnvGuard &) = delete;

  private:
    FpContext *saved_;
};

/**
 * Per-operation dispatch state, captured once at op entry.
 *
 * detail::enterOp() makes the one routing decision per op: a struck
 * op (or any op under a hook without a trigger) gets `hooked` and
 * runs the softfloat body stage by stage; an op that is not struck
 * and finds the host FPU in its IEEE default mode gets `host`, and
 * the caller may compute it natively when its format is admissible
 * (see host.cc). Sixteen bytes, so enterOp() returns it in
 * registers.
 */
struct OpCtx
{
    FpContext *ctx = nullptr;  ///< counters + hook, or null
    bool hooked = false;       ///< ctx's hook sees this op's stages
    bool host = false;         ///< may run on the host FPU
};

namespace detail {

/** Count one op, advance the strike trigger and decide its route. */
OpCtx enterOp(OpKind op);

/**
 * The block gate's question, asked once for a whole block: for each
 * kind k, how many of the next @p upper[k] ops of kind k (which all
 * read an operand) would each get OpCtx::host from enterOp(), counted
 * from the first: the un-struck prefix under a strike trigger
 * (StrikeTrigger::unstruck), and zero for every kind under a hook
 * without one or a host FPU outside its IEEE default mode. A block
 * whose op count per kind is at most @p upper may run wholly on the
 * host when the answer equals @p upper. Reads the host mode once;
 * nothing is counted or entered.
 */
OpCounts peekBlock(const OpCounts &upper);

/** The one-kind case: peekBlock(upper)[op] for an upper bound of
 *  @p n ops of kind @p op and none of any other kind. */
std::uint64_t peekBlock(OpKind op, std::uint64_t n);

/**
 * Count and enter @p exact[k] ops of each kind k as that many
 * enterOp() calls would, for a block peekBlock() gave to the host.
 * @p last is the kind of the block's last op (any kind when the
 * block ran none); it is entered last, so the trigger's `current`
 * ends where stepping the block op by op leaves it.
 */
void commitBlock(const OpCounts &exact, OpKind last);

/** The one-kind case: count and enter @p n ops of kind @p op. */
void commitBlock(OpKind op, std::uint64_t n);

/**
 * The value of @p stage of a hooked op: the trigger's bit rule when
 * the armed fault carries one (StrikeTrigger::hit), else the context
 * hook's perturb().
 */
inline std::uint64_t
touch(const OpCtx &oc, OpKind op, Stage stage, unsigned width,
      std::uint64_t value)
{
    if (!oc.hooked) [[likely]]
        return value;
    StrikeTrigger *strike = oc.ctx->strike;
    if (strike == nullptr || strike->stage == Stage::NumStages)
        return oc.ctx->hook->perturb(op, stage, width, value);
    if (stage != strike->stage || !strike->strikes(op))
        return value;
    return strike->hit(width, value);
}

} // namespace detail

} // namespace mparch::fp

#endif // MPARCH_FP_HOOKS_HH

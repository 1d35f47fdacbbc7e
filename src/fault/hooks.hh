/**
 * @file
 * Fault-injecting FpHook implementations.
 *
 * OneShotDatapathHook models a transient particle strike inside a
 * functional unit: it corrupts one datapath stage of one dynamic
 * operation instance. PersistentDatapathHook models an FPGA
 * configuration-memory upset: a physical operator is broken, so every
 * dynamic operation that the broken unit executes (operation index
 * congruent to the unit's position modulo the number of physical
 * units) is corrupted the same way until the bitstream is reloaded.
 */

#ifndef MPARCH_FAULT_HOOKS_HH
#define MPARCH_FAULT_HOOKS_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "fp/format.hh"
#include "fp/hooks.hh"

namespace mparch::fault {

/** Valid perturbation stages for an operation kind. */
const std::array<fp::Stage, 10> &stagesFor(fp::OpKind kind,
                                           std::size_t &count);

/**
 * Relative bit population of a stage for a given format — the default
 * "uniform over datapath bits" sampling weight.
 */
unsigned stageWidthEstimate(fp::Stage stage, fp::Format f);

/**
 * How a broken physical operator corrupts the datapath bit it owns.
 *
 * A configuration-memory upset rewires logic, so the classic model
 * is a stuck-at: the bit reads 0 (or 1) regardless of the computed
 * value — which masks the fault whenever the correct value already
 * matches. Flip (always-wrong) is kept for worst-case analysis. It
 * is the trigger's bit rule (fp::StrikeTrigger::corrupt).
 */
using PersistMode = fp::BitRule;

/** Name of a PersistMode ("flip" / "stuck-at-0" / "stuck-at-1"). */
constexpr const char *
persistModeName(PersistMode mode)
{
    switch (mode) {
      case PersistMode::Flip:     return "flip";
      case PersistMode::StuckAt0: return "stuck-at-0";
      case PersistMode::StuckAt1: return "stuck-at-1";
    }
    return "?";
}

/**
 * A datapath fault: a strike trigger (which dynamic ops) plus the
 * stage, bit and rule it corrupts them with, all held by the trigger.
 *
 * arm() installs the hook together with its trigger, so only the
 * struck ops reach perturb() and every other op runs on the fast
 * path; the host routes of struck ops apply the trigger's rule
 * without calling perturb(). Installed as a plain FpContext::hook (no
 * trigger), it sees every op and advances the trigger itself at each
 * OperandA visit, which is the same point in the op stream: both
 * installs corrupt the same ops.
 */
class DatapathFault : public fp::FpHook
{
  public:
    /** Install this fault (hook and trigger) into @p ctx. */
    void
    arm(fp::FpContext &ctx)
    {
        ctx.hook = this;
        ctx.strike = &trigger_;
    }

    /**
     * Continue counting from a golden checkpoint whose op entries per
     * kind were @p entered. The checkpoint must come before the first
     * op this fault can strike; the rest of the trigger's state then
     * decides strikes() as it would have in the whole run.
     */
    void resume(const fp::OpCounts &entered) { trigger_.seen = entered; }

    /** True once this fault can no longer strike any op. */
    bool exhausted() const { return trigger_.exhausted(); }

    /** The trigger's rule on this visit's value, when it is struck. */
    std::uint64_t
    perturb(fp::OpKind op, fp::Stage stage, unsigned width,
            std::uint64_t value) final
    {
        if (stage == fp::Stage::OperandA) {
            const fp::FpContext *ctx = fp::currentContext();
            if (ctx == nullptr || ctx->strike != &trigger_)
                trigger_.enter(op);
        }
        if (stage != trigger_.stage || !trigger_.strikes(op))
            return value;
        return trigger_.hit(width, value);
    }

  protected:
    DatapathFault(const fp::StrikeTrigger &trigger, fp::Stage stage,
                  double bit_frac, fp::BitRule rule)
        : trigger_(trigger)
    {
        trigger_.stage = stage;
        trigger_.bitFrac = bit_frac;
        trigger_.rule = rule;
    }

    fp::StrikeTrigger trigger_;
};

/** Flip one bit of one stage of one dynamic op instance. */
class OneShotDatapathHook : public DatapathFault
{
  public:
    /**
     * @param kind      Operation kind to strike.
     * @param index     Dynamic instance among ops of that kind.
     * @param stage     Datapath stage to corrupt.
     * @param bit_frac  Bit position as a fraction of the stage width
     *                  (the width is only known at fire time).
     */
    OneShotDatapathHook(fp::OpKind kind, std::uint64_t index,
                        fp::Stage stage, double bit_frac)
        : DatapathFault(fp::StrikeTrigger::oneShot(kind, index), stage,
                        bit_frac, fp::BitRule::Flip)
    {}

    /** True once the fault was placed. */
    bool fired() const { return trigger_.hits != 0; }
};

/**
 * Break one physical operator: corrupt every op of a kind whose
 * dynamic index falls on the broken unit (index % units == unit),
 * optionally restricted to an engine's periodic index window so a
 * fault in (say) a CNN's conv engine never touches its dense engine.
 */
class PersistentDatapathHook : public DatapathFault
{
  public:
    /**
     * @param kind  Operation kind implemented by the broken unit.
     * @param units Physical operator instances of that kind in the
     *              affected engine (time-multiplexing factor).
     * @param unit  Which instance is broken.
     * @param stage Datapath stage the upset affects.
     * @param bit_frac Bit position as a fraction of stage width.
     * @param period Engine window period in ops of @p kind (0 = all).
     * @param lo     Window start within the period.
     * @param hi     Window end within the period.
     * @param mode   Stuck-at or always-flip corruption.
     */
    PersistentDatapathHook(fp::OpKind kind, std::uint64_t units,
                           std::uint64_t unit, fp::Stage stage,
                           double bit_frac, std::uint64_t period = 0,
                           std::uint64_t lo = 0, std::uint64_t hi = 0,
                           PersistMode mode = PersistMode::Flip)
        : DatapathFault(fp::StrikeTrigger::persistent(kind, units, unit,
                                                      period, lo, hi),
                        stage, bit_frac, mode)
    {}

    /** Number of operations the broken unit touched (a stuck-at bit
     *  that already held its value included). */
    std::uint64_t hits() const { return trigger_.hits; }
};

} // namespace mparch::fault

#endif // MPARCH_FAULT_HOOKS_HH

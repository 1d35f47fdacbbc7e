#include "arch/gpu/sm_sim.hh"

#include <vector>

#include "arch/gpu/params.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "fault/campaign.hh"

namespace mparch::gpu {

namespace {

/** Architectural control state widths (bits). */
constexpr unsigned kCounterBits = 32;  // remaining-instruction PC
constexpr unsigned kTimerBits = 8;     // scoreboard countdown
constexpr unsigned kPerWarpBits = kCounterBits + kTimerBits;

/** One scheduled flip of a control-state bit. */
struct ControlFlip
{
    std::uint64_t cycle = ~0ULL;
    int warp = 0;
    /** [0,32): counter bit; [32,40): timer bit; 40: active-mask. */
    unsigned bit = 0;
};

/** Simulation outcome details for the injection campaign. */
struct RunResult
{
    std::uint64_t cycles = 0;
    std::uint64_t issued = 0;
    std::uint64_t issue_busy = 0;
    double inflight_accum = 0.0;
    bool hang = false;
    bool hazard = false;  // scoreboard shortened: stale-read hazard
};

RunResult
run(const SmConfig &config, const WarpProgram &program,
    const ControlFlip *flip, std::uint64_t hard_cap)
{
    const auto latency = static_cast<std::uint64_t>(
        opLatencyCycles(config.precision) *
        packFactor(config.precision));

    struct WarpState
    {
        std::uint64_t remaining = 0;
        std::uint64_t timer = 0;
        std::vector<std::uint64_t> completions;  // independent mode
        bool active = true;
    };
    std::vector<WarpState> warps(
        static_cast<std::size_t>(config.warps));
    for (auto &w : warps)
        w.remaining = program.instructions;

    RunResult result;
    int next_warp = 0;
    std::uint64_t cycle = 0;
    auto all_done = [&warps] {
        for (const auto &w : warps)
            if (w.active)
                return false;
        return true;
    };

    while (!all_done()) {
        if (cycle >= hard_cap) {
            result.hang = true;
            break;
        }
        // Control-fault strike.
        if (flip && cycle == flip->cycle) {
            auto &w = warps[static_cast<std::size_t>(flip->warp)];
            if (flip->bit < kCounterBits) {
                const std::uint64_t before = w.remaining;
                w.remaining = flipBit(
                    w.remaining & maskBits(kCounterBits), flip->bit);
                (void)before;
            } else if (flip->bit < kPerWarpBits) {
                const std::uint64_t before = w.timer;
                w.timer = flipBit(w.timer & maskBits(kTimerBits),
                                  flip->bit - kCounterBits);
                if (w.timer < before)
                    result.hazard = true;
            } else {
                w.active = !w.active;
            }
        }

        // Retire.
        std::uint64_t inflight = 0;
        for (auto &w : warps) {
            if (w.timer > 0) {
                --w.timer;
                ++inflight;
            }
            std::erase_if(w.completions, [cycle](std::uint64_t c) {
                return c <= cycle;
            });
            inflight += w.completions.size();
        }
        result.inflight_accum += static_cast<double>(inflight);

        // Issue: round-robin over ready warps.
        int issued_now = 0;
        for (int probe = 0;
             probe < config.warps && issued_now < config.issueSlots;
             ++probe) {
            const int idx = (next_warp + probe) % config.warps;
            auto &w = warps[static_cast<std::size_t>(idx)];
            if (!w.active || w.remaining == 0)
                continue;
            const bool ready =
                program.dependentChain
                    ? w.timer == 0
                    : w.completions.size() <
                          static_cast<std::size_t>(
                              program.maxInFlight);
            if (!ready)
                continue;
            --w.remaining;
            ++result.issued;
            ++issued_now;
            if (program.dependentChain)
                w.timer = latency;
            else
                w.completions.push_back(cycle + latency);
            next_warp = (idx + 1) % config.warps;
        }
        if (issued_now > 0)
            ++result.issue_busy;

        // Deactivate drained warps.
        for (auto &w : warps) {
            if (w.active && w.remaining == 0 && w.timer == 0 &&
                w.completions.empty()) {
                w.active = false;
            }
        }
        ++cycle;
    }
    result.cycles = cycle;
    return result;
}

} // namespace

SmStats
simulateSm(const SmConfig &config, const WarpProgram &program)
{
    const RunResult r =
        run(config, program, nullptr, ~0ULL >> 1);
    SmStats stats;
    stats.cycles = r.cycles;
    stats.issueUtilization =
        r.cycles ? static_cast<double>(r.issue_busy) /
                       static_cast<double>(r.cycles)
                 : 0.0;
    stats.avgInFlight =
        r.cycles ? r.inflight_accum / static_cast<double>(r.cycles)
                 : 0.0;
    stats.controlBits =
        config.warps * (kPerWarpBits + 1.0);
    return stats;
}

ControlAvf
measureControlAvf(const SmConfig &config, const WarpProgram &program,
                  std::uint64_t trials, std::uint64_t seed)
{
    const RunResult golden =
        run(config, program, nullptr, ~0ULL >> 1);
    const std::uint64_t hard_cap = fault::kTimeoutFactor * golden.cycles;

    Rng rng(seed);
    ControlAvf result;
    for (std::uint64_t t = 0; t < trials; ++t) {
        ControlFlip flip;
        flip.cycle = rng.below(golden.cycles);
        flip.warp = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(config.warps)));
        flip.bit =
            static_cast<unsigned>(rng.below(kPerWarpBits + 1));
        const RunResult r = run(config, program, &flip, hard_cap);
        ++result.trials;
        if (r.hang) {
            ++result.due;
        } else if (r.issued != golden.issued || r.hazard) {
            ++result.sdc;
        } else {
            ++result.masked;
        }
    }
    return result;
}

} // namespace mparch::gpu

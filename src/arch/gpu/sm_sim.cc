#include "arch/gpu/sm_sim.hh"

#include <vector>

#include "arch/gpu/params.hh"
#include "common/bits.hh"

namespace mparch::gpu {

namespace {

/** Architectural control state widths (bits). */
constexpr unsigned kCounterBits = 32;  // remaining-instruction PC
constexpr unsigned kTimerBits = 8;     // scoreboard countdown
constexpr unsigned kPerWarpBits = kCounterBits + kTimerBits;

/**
 * A run's outcome; `corrupt` marks a shortened scoreboard timer (a
 * stale-read hazard). A flip's bit is [0,32) a counter bit, [32,40)
 * a timer bit, 40 the active mask, of warp `context`.
 */
struct RunResult : arch::ControlRun
{
    std::uint64_t issue_busy = 0;
    double inflight_accum = 0.0;
};

RunResult
run(const SmConfig &config, const WarpProgram &program,
    const arch::ControlFlip *flip, std::uint64_t hard_cap)
{
    const auto latency = static_cast<std::uint64_t>(
        opLatencyCycles(config.precision) *
        packFactor(config.precision));

    struct WarpState
    {
        std::uint64_t remaining = 0;
        std::uint64_t timer = 0;
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
            auto &w = warps[static_cast<std::size_t>(flip->context)];
            if (flip->bit < kCounterBits) {
                w.remaining = flipBit(
                    w.remaining & maskBits(kCounterBits), flip->bit);
            } else if (flip->bit < kPerWarpBits) {
                const std::uint64_t before = w.timer;
                w.timer = flipBit(w.timer & maskBits(kTimerBits),
                                  flip->bit - kCounterBits);
                if (w.timer < before)
                    result.corrupt = true;
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
        }
        result.inflight_accum += static_cast<double>(inflight);

        // Issue: the first ready warp in round-robin order.
        for (int probe = 0; probe < config.warps; ++probe) {
            const int idx = (next_warp + probe) % config.warps;
            auto &w = warps[static_cast<std::size_t>(idx)];
            if (!w.active || w.remaining == 0 || w.timer != 0)
                continue;
            --w.remaining;
            ++result.issued;
            ++result.issue_busy;
            w.timer = latency;
            next_warp = (idx + 1) % config.warps;
            break;
        }

        // Deactivate drained warps.
        for (auto &w : warps) {
            if (w.active && w.remaining == 0 && w.timer == 0)
                w.active = false;
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

arch::ControlAvf
measureControlAvf(const SmConfig &config, const WarpProgram &program,
                  std::uint64_t trials, std::uint64_t seed)
{
    return arch::measureControlFlips(
        [&](const arch::ControlFlip *flip, std::uint64_t cap) {
            return run(config, program, flip, cap);
        },
        config.warps, kPerWarpBits + 1, trials, seed);
}

} // namespace mparch::gpu

#include "arch/phi/vpu_sim.hh"

#include <vector>

#include "arch/phi/params.hh"
#include "common/bits.hh"

namespace mparch::phi {

namespace {

constexpr unsigned kCounterBits = 32;

/** VPU latency in cycles, for every precision. */
constexpr std::uint64_t kLatency = 4;

/**
 * A run's outcome; `corrupt` marks an issue under a changed lane mask.
 * A flip's bit is [0,32) a counter bit of thread `context`, 32 the
 * round-robin pointer, 33 and up a lane-mask bit.
 */
struct RunResult : arch::ControlRun
{
    std::uint64_t issue_busy = 0;
};

RunResult
run(const VpuConfig &config, const VpuProgram &program,
    const arch::ControlFlip *flip, std::uint64_t hard_cap)
{
    struct ThreadState
    {
        std::uint64_t remaining = 0;
        // Completion times of the in-flight window; a thread can
        // issue when fewer than `unroll` instructions are pending
        // (software pipelining exposes that much independence).
        std::vector<std::uint64_t> pending;
    };
    std::vector<ThreadState> threads(
        static_cast<std::size_t>(config.threads));
    for (auto &t : threads)
        t.remaining = program.instructions;
    std::uint64_t lane_mask =
        maskBits(static_cast<unsigned>(lanes(config.precision)));
    const std::uint64_t full_mask = lane_mask;

    RunResult result;
    int rr = 0;          // round-robin pointer
    int last_issued = -1;  // KNC: no back-to-back same-thread issue
    std::uint64_t cycle = 0;

    auto all_done = [&threads] {
        for (const auto &t : threads)
            if (t.remaining > 0 || !t.pending.empty())
                return false;
        return true;
    };

    while (!all_done()) {
        if (cycle >= hard_cap) {
            result.hang = true;
            break;
        }
        if (flip && cycle == flip->cycle) {
            if (flip->bit < kCounterBits) {
                auto &t = threads[static_cast<std::size_t>(
                    flip->context)];
                t.remaining = flipBit(
                    t.remaining & maskBits(kCounterBits), flip->bit);
            } else if (flip->bit == kCounterBits) {
                rr = (rr + (config.threads / 2)) % config.threads;
            } else {
                lane_mask = flipBit(
                    lane_mask, flip->bit - kCounterBits - 1);
            }
        }

        // Retire.
        for (auto &t : threads) {
            std::erase_if(t.pending, [cycle](std::uint64_t c) {
                return c <= cycle;
            });
        }

        // Issue at most one vector instruction, round-robin, never
        // from the thread that issued last cycle.
        bool issued = false;
        for (int probe = 0; probe < config.threads; ++probe) {
            const int idx = (rr + probe) % config.threads;
            if (idx == last_issued)
                continue;  // KNC: no consecutive-cycle same-thread
            auto &t = threads[static_cast<std::size_t>(idx)];
            if (t.remaining == 0)
                continue;
            if (t.pending.size() >=
                static_cast<std::size_t>(program.unroll)) {
                continue;
            }
            --t.remaining;
            t.pending.push_back(cycle + kLatency);
            ++result.issued;
            if (lane_mask != full_mask)
                result.corrupt = true;
            rr = (idx + 1) % config.threads;
            last_issued = idx;
            issued = true;
            break;
        }
        if (issued)
            ++result.issue_busy;
        else
            last_issued = -1;  // idle cycle clears the restriction
        ++cycle;
    }
    result.cycles = cycle;
    return result;
}

} // namespace

VpuStats
simulateVpu(const VpuConfig &config, const VpuProgram &program)
{
    const RunResult r = run(config, program, nullptr, ~0ULL >> 1);
    VpuStats stats;
    stats.cycles = r.cycles;
    stats.issueUtilization =
        r.cycles ? static_cast<double>(r.issue_busy) /
                       static_cast<double>(r.cycles)
                 : 0.0;
    stats.controlBits =
        config.threads * (kCounterBits + 0.0) + 2.0 +
        lanes(config.precision);
    return stats;
}

arch::ControlAvf
measureVpuControlAvf(const VpuConfig &config, const VpuProgram &program,
                     std::uint64_t trials, std::uint64_t seed)
{
    return arch::measureControlFlips(
        [&](const arch::ControlFlip *flip, std::uint64_t cap) {
            return run(config, program, flip, cap);
        },
        config.threads,
        kCounterBits + 1 + static_cast<unsigned>(lanes(config.precision)),
        trials, seed);
}

} // namespace mparch::phi

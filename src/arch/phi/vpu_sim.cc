#include "arch/phi/vpu_sim.hh"

#include <vector>

#include "arch/phi/params.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "fault/campaign.hh"

namespace mparch::phi {

namespace {

constexpr unsigned kCounterBits = 32;

struct ControlFlip
{
    std::uint64_t cycle = ~0ULL;
    int thread = 0;
    /** [0,32): counter; 32: RR pointer; 33+: lane-mask bit. */
    unsigned bit = 0;
};

struct RunResult
{
    std::uint64_t cycles = 0;
    std::uint64_t issued = 0;
    std::uint64_t issue_busy = 0;
    bool hang = false;
    bool lane_corrupt = false;
};

RunResult
run(const VpuConfig &config, const VpuProgram &program,
    const ControlFlip *flip, std::uint64_t hard_cap)
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
                    flip->thread)];
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
            t.pending.push_back(
                cycle + static_cast<std::uint64_t>(config.latency));
            ++result.issued;
            if (lane_mask != full_mask)
                result.lane_corrupt = true;
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

VpuControlAvf
measureVpuControlAvf(const VpuConfig &config,
                     const VpuProgram &program, std::uint64_t trials,
                     std::uint64_t seed)
{
    const RunResult golden = run(config, program, nullptr,
                                 ~0ULL >> 1);
    const std::uint64_t hard_cap = fault::kTimeoutFactor * golden.cycles;
    const unsigned control_span =
        kCounterBits + 1 +
        static_cast<unsigned>(lanes(config.precision));

    Rng rng(seed);
    VpuControlAvf result;
    for (std::uint64_t t = 0; t < trials; ++t) {
        ControlFlip flip;
        flip.cycle = rng.below(golden.cycles);
        flip.thread = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(config.threads)));
        flip.bit = static_cast<unsigned>(rng.below(control_span));
        const RunResult r = run(config, program, &flip, hard_cap);
        ++result.trials;
        if (r.hang)
            ++result.due;
        else if (r.issued != golden.issued || r.lane_corrupt)
            ++result.sdc;
        else
            ++result.masked;
    }
    return result;
}

} // namespace mparch::phi

/**
 * @file
 * Deterministic pseudo-random number generation for campaigns.
 *
 * All Monte Carlo machinery in mparch (fault-site sampling, Poisson
 * arrivals, dataset synthesis, weight initialisation) draws from this
 * xoshiro256** generator so that every experiment is reproducible from
 * a single seed. std::mt19937 is avoided because its state is large
 * and its distributions are not guaranteed bit-identical across
 * standard library implementations.
 */

#ifndef MPARCH_COMMON_RNG_HH
#define MPARCH_COMMON_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>

#include "logging.hh"

namespace mparch {

/**
 * xoshiro256** PRNG (Blackman & Vigna) with distribution helpers.
 *
 * Deterministic, fast (sub-ns per draw), with a 2^256-1 period —
 * plenty for campaigns with billions of draws.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state_)
            word = splitmix64(x);
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        MPARCH_ASSERT(bound > 0, "Rng::below needs a positive bound");
        // Debiased multiply-shift (Lemire).
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = -bound % bound;
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::int64_t
    between(std::int64_t lo, std::int64_t hi)
    {
        MPARCH_ASSERT(lo <= hi, "Rng::between needs lo <= hi");
        const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(below(span));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Bernoulli draw with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Standard normal draw (Marsaglia polar method). */
    double
    normal()
    {
        if (hasSpare_) {
            hasSpare_ = false;
            return spare_;
        }
        double u, v, s;
        do {
            u = uniform(-1.0, 1.0);
            v = uniform(-1.0, 1.0);
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        const double f = std::sqrt(-2.0 * std::log(s) / s);
        spare_ = v * f;
        hasSpare_ = true;
        return u * f;
    }

    /** Normal draw with given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        return mean + stddev * normal();
    }

    /**
     * Poisson draw with the given mean.
     *
     * Uses Knuth's product method for small means and a normal
     * approximation above 64 (adequate for fault-arrival counts).
     */
    std::uint64_t
    poisson(double mean)
    {
        MPARCH_ASSERT(mean >= 0.0, "Poisson mean must be non-negative");
        if (mean == 0.0)
            return 0;
        if (mean > 64.0) {
            const double draw = normal(mean, std::sqrt(mean));
            return draw <= 0.0 ? 0
                               : static_cast<std::uint64_t>(draw + 0.5);
        }
        const double limit = std::exp(-mean);
        std::uint64_t count = 0;
        double product = uniform();
        while (product > limit) {
            ++count;
            product *= uniform();
        }
        return count;
    }

    /** Exponential inter-arrival draw with the given rate. */
    double
    exponential(double rate)
    {
        MPARCH_ASSERT(rate > 0.0, "exponential rate must be positive");
        return -std::log(1.0 - uniform()) / rate;
    }

    /** Derive an independent child generator (for sub-campaigns). */
    Rng
    fork()
    {
        return Rng(next() ^ 0xa0761d6478bd642fULL);
    }

    /**
     * Stateless 64-bit mix of two words (two rounds of the splitmix64
     * finaliser over a xor-folded combination). Used to derive
     * counter-based streams: the result depends on both inputs with
     * full avalanche, so adjacent counters yield independent seeds.
     */
    static std::uint64_t
    mix(std::uint64_t a, std::uint64_t b)
    {
        std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL +
                               (a << 6) + (a >> 2));
        (void)splitmix64(x);
        return splitmix64(x);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::array<std::uint64_t, 4> state_;
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

/**
 * Counter-based trial generator: the stream for trial @p index of a
 * campaign seeded with @p seed.
 *
 * Campaigns derive every per-trial draw from this instead of a shared
 * sequential stream, so (a) any single trial is replayable standalone
 * from (seed, index) alone, and (b) running trials out of order, on
 * worker threads or across a resume, cannot change any trial's
 * sample: every run of a campaign agrees bit-for-bit.
 */
inline Rng
trialRng(std::uint64_t seed, std::uint64_t index)
{
    return Rng(Rng::mix(seed, index));
}

} // namespace mparch

#endif // MPARCH_COMMON_RNG_HH

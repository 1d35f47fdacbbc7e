/**
 * @file
 * Seeded property-based fuzzer with counterexample shrinking.
 *
 * Every trial is a counter-based RNG stream (trialRng(seed, index)),
 * so any failing trial replays standalone from (seed, index) and the
 * report is bit-identical for any --jobs value. The operand generator
 * is heavily biased toward the values where rounding bugs live:
 * signed zeros, infinities, NaN, exact powers of two, all-ones and
 * lone-bit significands, subnormals, and operand pairs correlated to
 * within a few ULPs (catastrophic cancellation) or mirrored in sign.
 *
 * A failing case is greedily shrunk before reporting: operands are
 * replaced by simpler ones (zero, one, cleared sign, bias exponent,
 * dropped significand bits) while the failure persists, yielding a
 * minimal, copy-pasteable bit-pattern repro.
 */

#include "verify/verify.hh"

#include <algorithm>
#include <bit>
#include <iterator>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "fp/softfloat.hh"

namespace mparch::verify {

using fp::Format;

std::uint64_t
genOperand(Rng &rng, fp::Format f)
{
    const std::uint64_t roll = rng.below(100);
    const std::uint64_t sign =
        rng.chance(0.5) ? 1ULL << f.signPos() : 0;

    if (roll < 18) {
        // Hand-picked specials.
        const std::uint64_t specials[] = {
            fp::zero(f, false),
            fp::infinity(f, false),
            fp::quietNaN(f),
            fp::one(f),
            fp::maxFinite(f, false),
            fp::packFields(f, false, 0, 1),           // min subnormal
            fp::packFields(f, false, 0, f.manMask()), // max subnormal
            fp::packFields(f, false, 1, 0),           // min normal
            fp::packFields(f, false, f.bias() - 1, 0),       // 0.5
            fp::packFields(f, false, f.bias() + 1, 0),       // 2
        };
        const std::uint64_t v =
            specials[rng.below(std::size(specials))];
        return fp::isNaN(f, v) ? v : v | sign;
    }

    if (roll < 45) {
        // Boundary significands on a uniformly random exponent —
        // carries, ties and sticky bits concentrate here.
        const std::uint64_t man_patterns[] = {
            0,
            1,
            f.manMask(),
            f.manMask() - 1,
            f.manMask() >> 1,
            1ULL << (f.manBits - 1),
            (1ULL << (f.manBits - 1)) - 1,
            rng.next() & f.manMask(),
        };
        const int be = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(f.maxBiasedExp())));
        return fp::packFields(
                   f, false, be,
                   man_patterns[rng.below(std::size(man_patterns))]) |
               sign;
    }

    if (roll < 70) {
        // Exponent near the bias: the region where sums and products
        // neither overflow nor flush, so rounding paths dominate.
        const int spread = static_cast<int>(f.manBits) + 3;
        const int be = std::clamp<int>(
            f.bias() + static_cast<int>(rng.between(-spread, spread)),
            0, f.maxBiasedExp() - 1);
        return fp::packFields(f, false, be, rng.next() & f.manMask()) |
               sign;
    }

    // Fully random pattern (covers NaN payloads and everything else).
    return rng.next() & f.valueMask();
}

namespace {

/** A second operand correlated with @p a often enough to provoke
 *  cancellation, near-ties, and sign-mirror paths. */
std::uint64_t
genPartner(Rng &rng, Format f, std::uint64_t a)
{
    const std::uint64_t roll = rng.below(100);
    if (roll < 25 && fp::isFinite(f, a) && !fp::isZero(f, a)) {
        // Within a few grid steps of a (same sign half).
        const std::int64_t delta = rng.between(-4, 4);
        const std::uint64_t mag = a & (f.valueMask() >> 1);
        const auto moved = static_cast<std::int64_t>(mag) + delta;
        if (moved >= 0 &&
            moved <= static_cast<std::int64_t>(f.valueMask() >> 1))
            return (a & (1ULL << f.signPos())) |
                   static_cast<std::uint64_t>(moved);
    }
    if (roll < 40)
        return a ^ (1ULL << f.signPos());  // exact sign mirror
    return genOperand(rng, f);
}

const Format kFuzzFormats[] = {fp::kHalf, fp::kSingle, fp::kDouble,
                               fp::kBfloat16, fp::kTf32};

} // namespace

Case
genCase(Rng &rng, fp::Format f, const std::vector<VOp> &ops)
{
    Case c;
    c.fmt = f;
    c.op = ops.empty()
               ? allVOps[rng.below(std::size(allVOps))]
               : ops[rng.below(ops.size())];
    c.a = genOperand(rng, f);
    if (c.op == VOp::Convert) {
        // Any destination, self-conversion included.
        c.dst = kFuzzFormats[rng.below(std::size(kFuzzFormats))];
        return c;
    }
    const unsigned arity = vopArity(c.op);
    if (arity >= 2)
        c.b = genPartner(rng, f, c.a);
    if (arity >= 3) {
        if (rng.chance(0.3)) {
            // c near -(a*b): the FMA path where the product and the
            // addend annihilate and the sticky discipline is honest.
            const std::uint64_t p = fp::fpMul(f, c.a, c.b);
            c.c = fp::isNaN(f, p) ? genOperand(rng, f)
                                  : fp::fpNeg(f, p);
        } else {
            c.c = genPartner(rng, f, c.a);
        }
    }
    return c;
}

namespace {

/**
 * Simplicity order for shrink candidates. Every candidate kind below
 * strictly decreases this measure, so the greedy loop terminates on
 * its own instead of cycling (e.g. 0 -> one -> 0 -> ...) until the
 * eval budget runs dry.
 */
std::uint64_t
shrinkRank(Format f, std::uint64_t v)
{
    if (v == 0)
        return 0;
    if (v == fp::one(f))
        return 1;
    const std::uint64_t be = fp::biasedExpOf(f, v);
    const std::uint64_t bias = f.bias();
    const std::uint64_t exp_dist = be > bias ? be - bias : bias - be;
    const auto pop = static_cast<std::uint64_t>(
        std::popcount(fp::mantissaOf(f, v)));
    // sign > exponent distance > mantissa weight, lexicographically.
    return 2 + (std::uint64_t{fp::signOf(f, v)} << 40) +
           (exp_dist << 20) + pop;
}

} // namespace

Case
shrinkCase(Case c, const std::function<bool(const Case &)> &fails,
           int budget)
{
    int evals = 0;
    const auto stillFails = [&](const Case &cand) {
        if (evals >= budget)
            return false;
        ++evals;
        return fails(cand);
    };

    const unsigned arity =
        c.op == VOp::Convert ? 1 : vopArity(c.op);
    const Format f = c.fmt;

    bool improved = true;
    while (improved && evals < budget) {
        improved = false;
        for (unsigned idx = 0; idx < arity && !improved; ++idx) {
            const std::uint64_t orig =
                idx == 0 ? c.a : idx == 1 ? c.b : c.c;
            const auto apply = [&](std::uint64_t v) {
                Case cand = c;
                (idx == 0 ? cand.a : idx == 1 ? cand.b : cand.c) = v;
                return cand;
            };

            std::vector<std::uint64_t> cands;
            if (orig != 0)
                cands.push_back(0);  // +0: the simplest operand
            if (orig != fp::one(f))
                cands.push_back(fp::one(f));
            if (fp::signOf(f, orig))
                cands.push_back(orig & ~(1ULL << f.signPos()));
            // Pull the exponent toward the bias (value toward [1,2)),
            // halving the distance each round.
            const int be = fp::biasedExpOf(f, orig);
            if (be != 0 && be != f.maxBiasedExp() && be != f.bias()) {
                const int half_way = (be + f.bias()) / 2;
                if (half_way != be)
                    cands.push_back(fp::packFields(
                        f, fp::signOf(f, orig), half_way,
                        fp::mantissaOf(f, orig)));
            }
            // Drop significand bits, highest first.
            for (int bit = static_cast<int>(f.manBits) - 1; bit >= 0;
                 --bit) {
                if (orig & (1ULL << bit))
                    cands.push_back(orig & ~(1ULL << bit));
            }

            const std::uint64_t rank = shrinkRank(f, orig);
            for (std::uint64_t v : cands) {
                if (shrinkRank(f, v) >= rank)
                    continue;
                const Case cand = apply(v);
                if (stillFails(cand)) {
                    c = cand;
                    improved = true;
                    break;
                }
            }
        }
    }
    return c;
}

FuzzReport
fuzzFormat(fp::Format f, const FuzzConfig &cfg)
{
    const std::uint64_t seed = Rng::mix(
        cfg.seed, (static_cast<std::uint64_t>(f.totalBits) << 16) |
                      f.manBits);

    // Trials run in blocks; a block hands back its failing cases, and
    // the commit shrinks the first maxFailures of them in trial order.
    constexpr std::uint64_t kBlock = 256;
    struct Failing
    {
        std::uint64_t trial;
        Case c;
    };
    const std::uint64_t blocks = (cfg.trials + kBlock - 1) / kBlock;
    FuzzReport report;
    report.trials = cfg.trials;
    parallel::forEachInOrder(
        blocks, parallel::resolveJobs(cfg.jobs, blocks),
        [&](unsigned, std::uint64_t block) {
            std::vector<Failing> failing;
            const std::uint64_t end =
                std::min(cfg.trials, (block + 1) * kBlock);
            for (std::uint64_t trial = block * kBlock; trial < end;
                 ++trial) {
                Rng rng = trialRng(seed, trial);
                const Case c = genCase(rng, f, cfg.ops);
                if (!checkCase(c, cfg.check))
                    failing.push_back({trial, c});
            }
            return failing;
        },
        [&](std::uint64_t, std::vector<Failing> failing) {
            report.failures += failing.size();
            for (const Failing &x : failing) {
                if (report.sample.size() >= cfg.maxFailures)
                    break;
                FuzzFailure failure;
                failure.trial = x.trial;
                failure.original = x.c;
                failure.shrunk =
                    cfg.shrink ? shrinkCase(x.c,
                                            [&](const Case &cand) {
                                                return !checkCase(
                                                    cand, cfg.check);
                                            })
                               : x.c;
                checkCase(failure.shrunk, cfg.check,
                          &failure.mismatches);
                report.sample.push_back(std::move(failure));
            }
        });
    return report;
}

} // namespace mparch::verify

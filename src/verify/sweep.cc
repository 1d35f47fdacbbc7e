/**
 * @file
 * Exhaustive and sampled operand-space sweeps.
 *
 * Every case of a sweep has a global index (operand pattern, or pair
 * index a * 2^bits + b, or sampled-trial counter), and what a case
 * checks depends only on its index. The cases run in blocks through
 * parallel::forEachInOrder, which commits the blocks in index order;
 * the commit keeps the first maxReport mismatches it sees, so the
 * report is the first maxReport mismatches in operand order at any
 * number of workers.
 *
 * The unary/convert sweeps additionally check rounding monotonicity:
 * within each sign half, value order follows bit-pattern order, so a
 * correctly rounded monotone function must produce results that are
 * monotone on the same grid. Each case is checked against its
 * predecessor pattern, re-evaluated where it is needed, so the check
 * too depends on the index alone.
 */

#include "verify/verify.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace mparch::verify {

using fp::Format;
using fp::isNaN;

namespace {

/** What one block of cases found. */
struct BlockOut
{
    std::uint64_t cases = 0;
    std::uint64_t mismatches = 0;
    std::vector<Mismatch> kept;  ///< the first maxReport of them
};

/** Cases per block of a unary or sampled sweep: enough to amortise
 *  the loop's per-unit hand-off over cases of a few microseconds. */
constexpr std::uint64_t kBlock = 256;

/** Sign-magnitude pattern -> signed line (as in ulpDistance). */
std::int64_t
valueLine(Format f, std::uint64_t bits)
{
    const auto mag =
        static_cast<std::int64_t>(bits & (f.valueMask() >> 1));
    return fp::signOf(f, bits) ? -mag : mag;
}

/**
 * Check cases [0, count) in blocks of @p block on cfg.jobs workers;
 * @p body(index, out) checks one case. Blocks commit in index order,
 * and the report keeps the first maxReport mismatches committed.
 */
template <typename Body>
SweepReport
runBlocks(std::uint64_t count, std::uint64_t block, const SweepConfig &cfg,
          const Body &body)
{
    const std::uint64_t blocks = (count + block - 1) / block;
    SweepReport report;
    parallel::forEachInOrder(
        blocks, parallel::resolveJobs(cfg.jobs, blocks),
        [&](unsigned, std::uint64_t b) {
            BlockOut out;
            const std::uint64_t end = std::min(count, (b + 1) * block);
            out.cases = end - b * block;
            for (std::uint64_t i = b * block; i < end; ++i)
                body(i, out);
            return out;
        },
        [&](std::uint64_t, BlockOut out) {
            report.cases += out.cases;
            report.mismatches += out.mismatches;
            for (Mismatch &m : out.kept) {
                if (report.sample.size() >= cfg.maxReport)
                    break;
                report.sample.push_back(std::move(m));
            }
        });
    return report;
}

void
record(BlockOut &out, const SweepConfig &cfg,
       std::vector<Mismatch> &found)
{
    out.mismatches += found.size();
    for (Mismatch &m : found) {
        if (out.kept.size() >= cfg.maxReport)
            break;
        out.kept.push_back(std::move(m));
    }
    found.clear();
}

/** Evaluate the case for pattern @p bits of a unary/convert sweep. */
Case
unaryCase(VOp op, Format f, Format dst, std::uint64_t bits)
{
    Case c;
    c.op = op;
    c.fmt = f;
    c.dst = dst;
    c.a = bits;
    return c;
}

/**
 * The sampled sweep of @p op at any arity: @c cfg.samples cases, each
 * drawing its operands (a, then b, then c) from its own counter-based
 * stream, so the report is independent of the blocking.
 */
SweepReport
sweepSampled(VOp op, Format f, Format dst, const SweepConfig &cfg)
{
    const unsigned arity = vopArity(op);
    const std::uint64_t seed = Rng::mix(
        cfg.seed, (static_cast<std::uint64_t>(op) << 32) |
                      (static_cast<std::uint64_t>(f.totalBits) << 16) |
                      f.manBits);
    return runBlocks(
        cfg.samples, kBlock, cfg, [&](std::uint64_t i, BlockOut &out) {
            Rng rng = trialRng(seed, i);
            Case c = unaryCase(op, f, dst, genOperand(rng, f));
            if (arity >= 2)
                c.b = genOperand(rng, f);
            if (arity >= 3)
                c.c = genOperand(rng, f);
            std::vector<Mismatch> found;
            if (!checkCase(c, cfg.check, &found))
                record(out, cfg, found);
        });
}

/**
 * Monotonicity between adjacent patterns @p prev and @p cur (same
 * sign half): result order must follow value order. NaN at either
 * end of either side exempts the pair.
 */
void
checkMonotonePair(VOp op, Format f, Format dst, std::uint64_t prev,
                  std::uint64_t cur, BlockOut &out, const SweepConfig &cfg)
{
    // Crossing the sign boundary breaks value adjacency.
    if (fp::signOf(f, prev) != fp::signOf(f, cur))
        return;
    if (isNaN(f, prev) || isNaN(f, cur))
        return;
    const Format rf = op == VOp::Convert ? dst : f;
    const std::uint64_t rp = runProduction(unaryCase(op, f, dst, prev));
    const std::uint64_t rc = runProduction(unaryCase(op, f, dst, cur));
    if (isNaN(rf, rp) || isNaN(rf, rc))
        return;

    // Patterns ascend in magnitude; on the negative half that means
    // values descend, so a monotone op's results must too.
    const bool ascending = !fp::signOf(f, cur);
    const std::int64_t lp = valueLine(rf, rp);
    const std::int64_t lc = valueLine(rf, rc);
    if (ascending ? lc >= lp : lc <= lp)
        return;

    std::vector<Mismatch> found;
    Mismatch m;
    m.c = unaryCase(op, f, dst, cur);
    m.got = rc;
    m.want = rp;
    m.oracle = "property";
    m.detail = "monotonicity: result order breaks input value order "
               "against neighbour pattern 0x";
    char hex[32];
    std::snprintf(hex, sizeof hex, "%llx",
                  static_cast<unsigned long long>(prev));
    m.detail += hex;
    found.push_back(std::move(m));
    record(out, cfg, found);
}

SweepReport
sweepUnaryLike(VOp op, Format f, Format dst, const SweepConfig &cfg)
{
    if (cfg.samples == 0) {
        MPARCH_ASSERT(f.totalBits <= 16,
                      "exhaustive sweep needs a <= 16-bit format");
        const std::uint64_t space = 1ULL << f.totalBits;
        // Monotonicity is a theorem only for correctly rounded ops
        // (sqrt, convert): rounding a monotone function correctly
        // preserves grid order. The in-format transcendental chains
        // are *not* correctly rounded and do jitter by an ULP across
        // neighbours (observed for bfloat16 exp), so they are exempt.
        const bool monotone = cfg.checkMonotone &&
                              (op == VOp::Sqrt || op == VOp::Convert);
        return runBlocks(
            space, kBlock, cfg, [&](std::uint64_t bits, BlockOut &out) {
                const Case c = unaryCase(op, f, dst, bits);
                std::vector<Mismatch> found;
                if (!checkCase(c, cfg.check, &found))
                    record(out, cfg, found);
                if (monotone && bits > 0)
                    checkMonotonePair(op, f, dst, bits - 1, bits, out,
                                      cfg);
            });
    }

    return sweepSampled(op, f, dst, cfg);
}

} // namespace

SweepReport
sweepPairs(VOp op, fp::Format f, const SweepConfig &cfg)
{
    MPARCH_ASSERT(vopArity(op) == 2, "sweepPairs needs a binary op");

    if (cfg.samples == 0) {
        MPARCH_ASSERT(f.totalBits <= 16,
                      "exhaustive sweep needs a <= 16-bit format");
        const std::uint64_t space = 1ULL << f.totalBits;
        // One block per first operand: pair index a * 2^bits + b.
        return runBlocks(
            space * space, space, cfg, [&](std::uint64_t i, BlockOut &out) {
                Case c;
                c.op = op;
                c.fmt = f;
                c.a = i >> f.totalBits;
                c.b = i & (space - 1);
                std::vector<Mismatch> found;
                if (!checkCase(c, cfg.check, &found))
                    record(out, cfg, found);
            });
    }

    return sweepSampled(op, f, f, cfg);
}

SweepReport
sweepTriples(VOp op, fp::Format f, const SweepConfig &cfg)
{
    MPARCH_ASSERT(vopArity(op) == 3, "sweepTriples needs a ternary op");
    MPARCH_ASSERT(cfg.samples != 0,
                  "a ternary sweep is sampled: set SweepConfig::samples");
    return sweepSampled(op, f, f, cfg);
}

SweepReport
sweepUnary(VOp op, fp::Format f, const SweepConfig &cfg)
{
    MPARCH_ASSERT(vopArity(op) == 1 && op != VOp::Convert,
                  "sweepUnary needs a unary arithmetic op");
    return sweepUnaryLike(op, f, f, cfg);
}

SweepReport
sweepConvert(fp::Format src, fp::Format dst, const SweepConfig &cfg)
{
    return sweepUnaryLike(VOp::Convert, src, dst, cfg);
}

} // namespace mparch::verify

/**
 * @file
 * Exhaustive and sampled operand-space sweeps.
 *
 * Sweeps fan out over the common/parallel ThreadPool with
 * IndexChunker's prefix-ordered chunk dispenser. Determinism in the
 * number of workers comes from two disciplines:
 *
 *  - every case is identified by a global index (operand pattern, or
 *    pair index a * 2^bits + b, or sampled-trial counter), and the
 *    work a chunk performs depends only on its index range — never on
 *    which worker claimed it or in what order;
 *  - each chunk keeps at most maxReport mismatches, so the merged,
 *    index-sorted sample is a deterministic prefix of the full
 *    mismatch list (a mismatch dropped inside a chunk is always
 *    preceded by maxReport kept ones with smaller indices).
 *
 * The unary/convert sweeps additionally check rounding monotonicity:
 * within each sign half, value order follows bit-pattern order, so a
 * correctly rounded monotone function must produce results that are
 * monotone on the same grid. Chunk-internal neighbours are checked
 * directly and the one cross-chunk boundary pair is re-derived by
 * evaluating the predecessor pattern — again independent of chunk
 * assignment.
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

/** Keyed mismatch for deterministic cross-worker merging. */
struct Keyed
{
    std::uint64_t key;
    Mismatch m;
};

struct WorkerOut
{
    std::uint64_t cases = 0;
    std::uint64_t mismatches = 0;
    std::vector<Keyed> kept;
};

/** Sign-magnitude pattern -> signed line (as in ulpDistance). */
std::int64_t
valueLine(Format f, std::uint64_t bits)
{
    const auto mag =
        static_cast<std::int64_t>(bits & (f.valueMask() >> 1));
    return fp::signOf(f, bits) ? -mag : mag;
}

/** Merge the workers' outcomes; keep the first maxReport by key. */
SweepReport
merge(std::vector<WorkerOut> &outs, const SweepConfig &cfg)
{
    SweepReport report;
    std::vector<Keyed> merged;
    for (WorkerOut &out : outs) {
        report.cases += out.cases;
        report.mismatches += out.mismatches;
        merged.insert(merged.end(),
                      std::make_move_iterator(out.kept.begin()),
                      std::make_move_iterator(out.kept.end()));
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Keyed &x, const Keyed &y) {
                         return x.key < y.key;
                     });
    if (merged.size() > cfg.maxReport)
        merged.resize(cfg.maxReport);
    report.sample.reserve(merged.size());
    for (Keyed &k : merged)
        report.sample.push_back(std::move(k.m));
    return report;
}

/**
 * Run the chunked loop over @p count units and merge the outcome.
 * @p body is called as body(unit, worker_out, chunk_kept_budget).
 */
template <typename Body>
SweepReport
runChunked(std::uint64_t count, const SweepConfig &cfg, Body body)
{
    const unsigned jobs = parallel::resolveJobs(cfg.jobs, count);
    std::vector<WorkerOut> outs(jobs);
    // Chunks sized so even a 2^16-unit sweep produces enough of them
    // to balance a fast/slow worker split.
    const std::uint64_t chunk = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(1024, count / (jobs * 8) + 1));
    parallel::IndexChunker chunker(count, chunk);

    parallel::ThreadPool pool(jobs);
    pool.run([&](unsigned worker) {
        WorkerOut &out = outs[worker];
        std::uint64_t begin, end;
        while (chunker.next(begin, end)) {
            std::size_t budget = cfg.maxReport;
            for (std::uint64_t unit = begin; unit < end; ++unit)
                body(unit, out, budget);
        }
    });

    return merge(outs, cfg);
}

void
record(WorkerOut &out, std::size_t &budget, std::uint64_t key,
       std::vector<Mismatch> &found)
{
    out.mismatches += found.size();
    for (Mismatch &m : found) {
        if (budget == 0)
            break;
        --budget;
        out.kept.push_back({key, std::move(m)});
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
 * stream, so the report is independent of the chunking.
 */
SweepReport
sweepSampled(VOp op, Format f, Format dst, const SweepConfig &cfg)
{
    const unsigned arity = vopArity(op);
    const std::uint64_t seed = Rng::mix(
        cfg.seed, (static_cast<std::uint64_t>(op) << 32) |
                      (static_cast<std::uint64_t>(f.totalBits) << 16) |
                      f.manBits);
    return runChunked(
        cfg.samples, cfg,
        [&](std::uint64_t unit, WorkerOut &out, std::size_t &budget) {
            Rng rng = trialRng(seed, unit);
            Case c = unaryCase(op, f, dst, genOperand(rng, f));
            if (arity >= 2)
                c.b = genOperand(rng, f);
            if (arity >= 3)
                c.c = genOperand(rng, f);
            std::vector<Mismatch> found;
            ++out.cases;
            if (!checkCase(c, cfg.check, &found))
                record(out, budget, unit, found);
        });
}

/**
 * Monotonicity between adjacent patterns @p prev and @p cur (same
 * sign half): result order must follow value order. NaN at either
 * end of either side exempts the pair.
 */
void
checkMonotonePair(VOp op, Format f, Format dst, std::uint64_t prev,
                  std::uint64_t cur, std::uint64_t key, WorkerOut &out,
                  std::size_t &budget)
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
    record(out, budget, key, found);
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
        return runChunked(
            space, cfg,
            [&](std::uint64_t unit, WorkerOut &out,
                std::size_t &budget) {
                const Case c = unaryCase(op, f, dst, unit);
                std::vector<Mismatch> found;
                ++out.cases;
                if (!checkCase(c, cfg.check, &found))
                    record(out, budget, unit, found);
                if (monotone && unit > 0)
                    checkMonotonePair(op, f, dst, unit - 1, unit,
                                      unit, out, budget);
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
        // Chunk by first operand: each claimed range runs a full
        // inner loop over every second operand.
        const unsigned jobs = parallel::resolveJobs(cfg.jobs, space / 4);
        std::vector<WorkerOut> outs(jobs);
        parallel::IndexChunker chunker(space, 4);
        parallel::ThreadPool pool(jobs);
        pool.run([&](unsigned worker) {
            WorkerOut &out = outs[worker];
            std::uint64_t begin, end;
            while (chunker.next(begin, end)) {
                std::size_t budget = cfg.maxReport;
                std::vector<Mismatch> found;
                for (std::uint64_t a = begin; a < end; ++a) {
                    for (std::uint64_t b = 0; b < space; ++b) {
                        Case c;
                        c.op = op;
                        c.fmt = f;
                        c.a = a;
                        c.b = b;
                        ++out.cases;
                        if (!checkCase(c, cfg.check, &found))
                            record(out, budget, (a << f.totalBits) | b,
                                   found);
                    }
                }
            }
        });

        return merge(outs, cfg);
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

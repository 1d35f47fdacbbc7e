/**
 * @file
 * Differential oracle & exhaustive-verification subsystem for the
 * softfloat core.
 *
 * Every FIT/PVF/MEBF number the campaigns produce rests on mparch::fp
 * being bit-exact IEEE754-2008: a rounding bug in the production
 * datapath is indistinguishable from an injected fault. This
 * subsystem checks the production softfloat against three independent
 * oracles:
 *
 *  1. the host FPU (double/float/_Float16 hardware arithmetic, used
 *     only on paths where it is provably correctly rounded for the
 *     target format — see host_oracle.cc);
 *  2. an exact integer reference (exact significand arithmetic with
 *     one explicit round-to-nearest-even step, implemented
 *     independently of src/fp — see exact_oracle.cc);
 *  3. algebraic and taxonomy properties (commutativity, sign
 *     symmetry, NaN/Inf/subnormal classification, monotonic rounding,
 *     a bounded-ULP envelope for exp — properties.cc).
 *
 * The production result the oracles judge is the softfloat reference
 * (runProduction forces it past the host-FPU gate); the host-gate
 * check then requires the gated result to equal it, so both routes
 * an op can take in a campaign are verified on every case.
 *
 * On top of the oracles sit two engines:
 *
 *  - exhaustive/sampled *sweeps* over whole operand spaces (all 2^32
 *    16-bit pairs per binary op, all 2^16 inputs per unary op,
 *    sampled fma triples), run in blocks through
 *    parallel::forEachInOrder, whose in-order commit keeps the first
 *    mismatches in operand order — the report is byte-identical for
 *    any --jobs;
 *  - a seeded property-based *fuzzer* with a special-value-biased
 *    operand generator and counterexample shrinking, whose failures
 *    are persisted to tests/data/fp_corpus/ and replayed first by
 *    every verify_quick run.
 *
 * All checks run round-to-nearest-even, the softfloat core's one
 * rounding (the only mode the studied hardware uses).
 */

#ifndef MPARCH_VERIFY_VERIFY_HH
#define MPARCH_VERIFY_VERIFY_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hh"
#include "fp/format.hh"

namespace mparch::verify {

/** Operations under verification. */
enum class VOp
{
    Add, Sub, Mul, Div, Fma, Sqrt, Exp, Convert,
    NumOps,
};

/** Name of a VOp ("add", "fma", "convert", ...). */
const char *vopName(VOp op);

/** Parse a VOp name; nullopt for unknown names. */
std::optional<VOp> parseVOp(std::string_view name);

/** Number of operands the op consumes (1, 2 or 3). */
unsigned vopArity(VOp op);

/** All ops, in declaration order. */
inline constexpr VOp allVOps[] = {
    VOp::Add, VOp::Sub, VOp::Mul, VOp::Div, VOp::Fma,
    VOp::Sqrt, VOp::Exp, VOp::Convert,
};

/** Format name: "half", "single", "double", "bfloat16", "tf32". */
const char *formatName(fp::Format f);

/** Parse a format name; nullopt for unknown names. */
std::optional<fp::Format> parseFormat(std::string_view name);

/**
 * One verification case: an op, its operand format, and operand bit
 * patterns. For Convert, @c fmt is the source and @c dst the
 * destination format; for every other op @c dst is ignored.
 */
struct Case
{
    VOp op = VOp::Add;
    fp::Format fmt = fp::kHalf;
    fp::Format dst = fp::kHalf;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;

    /** Format of the result bit pattern. */
    fp::Format
    resultFormat() const
    {
        return op == VOp::Convert ? dst : fmt;
    }
};

/**
 * Execute the case through the production softfloat core. Runs under
 * an identity FpHook, which instruments every op and so keeps it off
 * the host-FPU gate: this is the reference the oracles judge.
 */
std::uint64_t runProduction(const Case &c);

/**
 * Execute the case as production code with no context does: through
 * the host-FPU gate, which must agree with runProduction() bit for
 * bit (the host-gate check).
 */
std::uint64_t runGated(const Case &c);

/** An oracle's verdict: unsupported, or the expected bit pattern. */
struct OracleResult
{
    bool supported = false;
    std::uint64_t bits = 0;
};

/**
 * Oracle 1: host FPU. Supported only where the host computation is
 * provably correctly rounded for the case's result format (see
 * host_oracle.cc for the double-rounding analysis); exp is never
 * host-supported — it gets a ULP envelope in the property oracle
 * instead.
 */
OracleResult hostOracle(const Case &c);

/**
 * Oracle 2: exact integer reference with one explicit RNE rounding.
 * Supports every op and every format (exp is re-derived from
 * the algorithm spec on top of the reference primitives).
 */
OracleResult exactOracle(const Case &c);

/** Knobs for the property oracle. */
struct PropertyOptions
{
    /**
     * Base ULP tolerance between the in-format exp and the host libm
     * result rounded into the format. The production algorithm is
     * *not* correctly rounded (Cody-Waite reduction + finite Horner
     * chain evaluated in-format), so the envelope is a bound, not
     * equality. The checker adds |x * log2e| on top of the base: the
     * reduction replays ln2's representation error k times and exp
     * converts it into ~k/2 result ULPs. Exhaustive 16-bit sweeps
     * measure exp within the scaled term alone (base 0 suffices).
     */
    int expUlpTol = 8;
};

/**
 * Oracle 3: algebraic/property checks on a produced result. Returns
 * one human-readable violation string per broken property (empty =
 * clean). Re-executes the production op for the symmetry checks.
 */
std::vector<std::string>
checkProperties(const Case &c, std::uint64_t result,
                const PropertyOptions &opts);

/** A single oracle disagreement (or property violation). */
struct Mismatch
{
    Case c;
    std::uint64_t got = 0;       ///< host-gate: the gated result
    std::uint64_t want = 0;      ///< meaningless for property violations
    std::string oracle;          ///< "host", "exact", "host-gate" or
                                 ///< "property"
    std::string detail;          ///< free text (property description, ...)
};

/** Multi-line human-readable rendering with a copy-pasteable repro. */
std::string describeMismatch(const Mismatch &m);

/** The case as a corpus file line (see corpus.cc for the grammar). */
std::string corpusLine(const Case &c);

/** A mparch_verify CLI invocation reproducing the case. */
std::string reproCommand(const Case &c);

/** Which oracles to consult. */
struct CheckOptions
{
    bool host = true;
    bool exact = true;
    bool props = true;
    PropertyOptions prop;
};

/**
 * Run one case through the production core and every enabled oracle,
 * and require the gated result to equal it (the host-gate check).
 * Returns true when everything agrees; on disagreement, appends to
 * @p out (when given) and returns false.
 */
bool checkCase(const Case &c, const CheckOptions &opts,
               std::vector<Mismatch> *out = nullptr);

/**
 * Distance between two bit patterns counted in representable values
 * of the format ("ULP distance" on the format grid). Sign-aware;
 * +0 and -0 coincide. Any NaN yields UINT64_MAX.
 */
std::uint64_t ulpDistance(fp::Format f, std::uint64_t x,
                          std::uint64_t y);

// ---------------------------------------------------------------- sweeps

/** Configuration shared by the sweep entry points. */
struct SweepConfig
{
    unsigned jobs = 1;           ///< worker threads; 0 = all hardware
    std::uint64_t samples = 0;   ///< 0 = exhaustive over the operand space
    std::uint64_t seed = 1;      ///< sampled-sweep RNG seed
    std::size_t maxReport = 32;  ///< mismatches kept for the report
    bool checkMonotone = true;   ///< unary/convert sweeps only
    CheckOptions check;
};

/** Outcome of a sweep. Deterministic for any jobs value. */
struct SweepReport
{
    std::uint64_t cases = 0;
    std::uint64_t mismatches = 0;
    std::vector<Mismatch> sample;  ///< first maxReport, operand order

    bool ok() const { return mismatches == 0; }
};

/**
 * Sweep a binary op (Add/Sub/Mul/Div) over operand pairs. Exhaustive
 * (samples == 0) requires a format of at most 16 bits — all 2^32
 * pairs are enumerated, one block per first operand. Otherwise
 * @c samples pseudo-random biased pairs are drawn from counter-based
 * streams (deterministic in jobs).
 */
SweepReport sweepPairs(VOp op, fp::Format f, const SweepConfig &cfg);

/**
 * Sweep a ternary op (Fma) over @c samples pseudo-random biased
 * triples, drawn as sweepPairs draws its pairs. Always sampled: the
 * 2^48 triples of a 16-bit format cannot be enumerated, so
 * cfg.samples must be non-zero.
 */
SweepReport sweepTriples(VOp op, fp::Format f, const SweepConfig &cfg);

/** Sweep a unary op (Sqrt/Exp) over all (or sampled) inputs. */
SweepReport sweepUnary(VOp op, fp::Format f, const SweepConfig &cfg);

/** Sweep Convert from @p src to @p dst over all (or sampled) inputs. */
SweepReport sweepConvert(fp::Format src, fp::Format dst,
                         const SweepConfig &cfg);

// ---------------------------------------------------------------- fuzz

/** Configuration of a fuzzing run. */
struct FuzzConfig
{
    std::uint64_t trials = 1000000;
    std::uint64_t seed = 1;
    unsigned jobs = 1;           ///< worker threads; 0 = all hardware
    std::vector<VOp> ops;        ///< empty = all ops
    std::size_t maxFailures = 16;
    bool shrink = true;
    CheckOptions check;
};

/** One fuzzer counterexample, original and shrunk. */
struct FuzzFailure
{
    std::uint64_t trial = 0;
    Case original;
    Case shrunk;
    std::vector<Mismatch> mismatches;  ///< of the shrunk case
};

/** Outcome of a fuzzing run. Deterministic for any jobs value. */
struct FuzzReport
{
    std::uint64_t trials = 0;
    std::uint64_t failures = 0;
    std::vector<FuzzFailure> sample;  ///< first maxFailures, trial order

    bool ok() const { return failures == 0; }
};

/** Fuzz one format: counter-seeded trials, biased operands. */
FuzzReport fuzzFormat(fp::Format f, const FuzzConfig &cfg);

/**
 * Draw one special-value-biased operand: zeros, infinities, NaN,
 * exact powers of two, boundary mantissas, subnormals and plain
 * random patterns all appear with substantial probability.
 */
std::uint64_t genOperand(Rng &rng, fp::Format f);

/** Draw a whole case (op from @p ops or all, correlated operands). */
Case genCase(Rng &rng, fp::Format f, const std::vector<VOp> &ops);

/**
 * Greedily shrink a failing case to a minimal failing bit pattern:
 * operands are simplified (zeroed, sign-cleared, mantissa bits
 * dropped, exponents pulled toward the bias) while @p fails keeps
 * returning true. Deterministic; at most @p budget evaluations.
 */
Case shrinkCase(Case c, const std::function<bool(const Case &)> &fails,
                int budget = 400);

// ---------------------------------------------------------------- corpus

/**
 * Parse one corpus line. Grammar (one case per line, '#' comments):
 *
 *   <op> <format> <hex operand>...          e.g.  add half 0x3c00 0x3c01
 *   convert <src> <dst> <hex operand>       e.g.  convert single half 0x3f801000
 */
std::optional<Case> parseCorpusLine(std::string_view line,
                                    std::string *error = nullptr);

/** Load every case of one corpus file (fatal on malformed lines). */
std::vector<Case> loadCorpusFile(const std::string &path);

/** Load all *.txt files under @p dir, sorted by filename. */
std::vector<Case> loadCorpusDir(const std::string &dir);

} // namespace mparch::verify

#endif // MPARCH_VERIFY_VERIFY_HH

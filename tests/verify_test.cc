/**
 * @file
 * Unit tests for the verification subsystem itself: the reference
 * rounding step, oracle cross-agreement, the property checker, corpus
 * serialisation, the shrinker, and the jobs-determinism of the sweep
 * and fuzz engines. The big differential runs live in verify_quick
 * and the exhaustive ctest tier; this file tests the test machinery.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "fp/softfloat.hh"
#include "verify/internal.hh"
#include "verify/verify.hh"

namespace mparch::verify {
namespace {

using fp::Format;
using fp::kBfloat16;
using fp::kDouble;
using fp::kHalf;
using fp::kSingle;
using fp::kTf32;

// ------------------------------------------------------------- names

TEST(VerifyNames, OpNamesRoundTrip)
{
    for (const VOp op : allVOps) {
        const auto parsed = parseVOp(vopName(op));
        ASSERT_TRUE(parsed.has_value()) << vopName(op);
        EXPECT_EQ(*parsed, op);
    }
    EXPECT_FALSE(parseVOp("frobnicate").has_value());
    EXPECT_FALSE(parseVOp("").has_value());
}

TEST(VerifyNames, FormatNamesRoundTrip)
{
    for (const Format f : {kHalf, kSingle, kDouble, kBfloat16, kTf32}) {
        const auto parsed = parseFormat(formatName(f));
        ASSERT_TRUE(parsed.has_value()) << formatName(f);
        EXPECT_EQ(parsed->totalBits, f.totalBits);
        EXPECT_EQ(parsed->manBits, f.manBits);
    }
    EXPECT_FALSE(parseFormat("octuple").has_value());
}

TEST(VerifyNames, Arity)
{
    EXPECT_EQ(vopArity(VOp::Add), 2u);
    EXPECT_EQ(vopArity(VOp::Sub), 2u);
    EXPECT_EQ(vopArity(VOp::Mul), 2u);
    EXPECT_EQ(vopArity(VOp::Div), 2u);
    EXPECT_EQ(vopArity(VOp::Fma), 3u);
    EXPECT_EQ(vopArity(VOp::Sqrt), 1u);
    EXPECT_EQ(vopArity(VOp::Exp), 1u);
    EXPECT_EQ(vopArity(VOp::Convert), 1u);
}

// ------------------------------------------------------- ulp distance

TEST(UlpDistance, CountsGridSteps)
{
    EXPECT_EQ(ulpDistance(kHalf, 0x3c00, 0x3c00), 0u);
    EXPECT_EQ(ulpDistance(kHalf, 0x3c00, 0x3c01), 1u);
    EXPECT_EQ(ulpDistance(kHalf, 0x3c01, 0x3c00), 1u);
    // Across an exponent boundary the encoding is still monotone.
    EXPECT_EQ(ulpDistance(kHalf, 0x3bff, 0x3c01), 2u);
}

TEST(UlpDistance, SignedZerosCoincide)
{
    EXPECT_EQ(ulpDistance(kHalf, 0x0000, 0x8000), 0u);
    // -smallest_subnormal .. +smallest_subnormal = 2 steps.
    EXPECT_EQ(ulpDistance(kHalf, 0x8001, 0x0001), 2u);
}

TEST(UlpDistance, NaNIsMaximal)
{
    EXPECT_EQ(ulpDistance(kHalf, fp::quietNaN(kHalf), 0x3c00),
              UINT64_MAX);
    EXPECT_EQ(ulpDistance(kHalf, 0x3c00, fp::quietNaN(kHalf)),
              UINT64_MAX);
}

// ------------------------------------------- reference rounding step

using detail::roundExactRNE;
using detail::U128;

TEST(RoundExactRNE, ExactValuesPassThrough)
{
    // 1.0 = 1024 * 2^-10 in binary16.
    EXPECT_EQ(roundExactRNE(kHalf, false, 1024, -10, false), 0x3c00u);
    EXPECT_EQ(roundExactRNE(kHalf, true, 1024, -10, false), 0xbc00u);
    // 1.5, with the significand over-shifted (trailing zeros dropped
    // exactly).
    EXPECT_EQ(roundExactRNE(kHalf, false, U128(1536) << 40, -50, false),
              0x3e00u);
    EXPECT_EQ(roundExactRNE(kHalf, false, 0, 0, false), 0x0000u);
}

TEST(RoundExactRNE, TiesGoToEven)
{
    // 1 + 2^-11 sits exactly between 1.0 (mantissa even) and 1+2^-10:
    // ties-to-even keeps 1.0.
    EXPECT_EQ(roundExactRNE(kHalf, false, 2049, -11, false), 0x3c00u);
    // 1 + 3*2^-11 sits between 1+2^-10 (odd) and 1+2^-9 (even): up.
    EXPECT_EQ(roundExactRNE(kHalf, false, 2051, -11, false), 0x3c02u);
}

TEST(RoundExactRNE, RestBreaksTies)
{
    // The same would-be tie with a strictly positive sub-LSB
    // remainder must round up instead.
    EXPECT_EQ(roundExactRNE(kHalf, false, 2049, -11, true), 0x3c01u);
    // And a rest below an already-below-half fraction changes nothing.
    EXPECT_EQ(roundExactRNE(kHalf, false, 2048 * 2 + 1, -12, true),
              0x3c00u);
}

TEST(RoundExactRNE, CarryPropagatesIntoExponent)
{
    // 1.9999... one ULP below 2.0 plus a tie rounds up to 2.0 with a
    // clean significand carry.
    EXPECT_EQ(roundExactRNE(kHalf, false, 2 * 2047 + 1, -11, false),
              0x4000u);
}

TEST(RoundExactRNE, SubnormalBoundary)
{
    // Smallest subnormal: 2^-24 = 1 * 2^-24.
    EXPECT_EQ(roundExactRNE(kHalf, false, 1, -24, false), 0x0001u);
    // Half of it is a tie with zero (even): rounds to zero...
    EXPECT_EQ(roundExactRNE(kHalf, false, 1, -25, false), 0x0000u);
    // ...unless a remainder pushes it over.
    EXPECT_EQ(roundExactRNE(kHalf, false, 1, -25, true), 0x0001u);
    // Sign survives an underflow to zero.
    EXPECT_EQ(roundExactRNE(kHalf, true, 1, -26, false), 0x8000u);
    // Largest subnormal and the first normal are adjacent.
    EXPECT_EQ(roundExactRNE(kHalf, false, 1023, -24, false), 0x03ffu);
    EXPECT_EQ(roundExactRNE(kHalf, false, 1024, -24, false), 0x0400u);
}

TEST(RoundExactRNE, OverflowSaturatesToInfinity)
{
    // maxFinite in binary16 is (2 - 2^-10) * 2^15 = 2047 * 2^5.
    EXPECT_EQ(roundExactRNE(kHalf, false, 2047, 5, false), 0x7bffu);
    // One ULP above: infinity (RNE overflows at > maxFinite + 1/2 ulp;
    // 2048 * 2^5 = 2^16 is far past the rounding boundary).
    EXPECT_EQ(roundExactRNE(kHalf, false, 2048, 5, false), 0x7c00u);
    EXPECT_EQ(roundExactRNE(kHalf, true, 2048, 5, false), 0xfc00u);
}

TEST(RoundExactRNE, AgreesWithProductionOnWideMantissas)
{
    // Pseudo-exhaustive differential against fpFromDouble: every
    // binary16 pattern, decoded to (sign, mag, exp), re-rounded.
    for (std::uint64_t bits = 0; bits <= 0xffff; ++bits) {
        if (fp::isNaN(kHalf, bits) || fp::isInf(kHalf, bits))
            continue;
        const auto d = detail::decodeBits(kHalf, bits);
        // Shift left by 37 and compensate: exercises the wide path.
        const U128 mag = U128(d.mag) << 37;
        EXPECT_EQ(roundExactRNE(kHalf, d.sign, mag, d.exp - 37, false),
                  bits)
            << bits;
    }
}

TEST(HighestSetBit128, Basics)
{
    EXPECT_EQ(detail::highestSetBit128(0), -1);
    EXPECT_EQ(detail::highestSetBit128(1), 0);
    EXPECT_EQ(detail::highestSetBit128(U128(1) << 64), 64);
    EXPECT_EQ(detail::highestSetBit128(U128(1) << 127), 127);
    EXPECT_EQ(detail::highestSetBit128((U128(1) << 100) | 5), 100);
}

TEST(DecodeBits, NormalSubnormalZero)
{
    const auto one = detail::decodeBits(kHalf, 0x3c00);
    EXPECT_FALSE(one.sign);
    EXPECT_EQ(one.mag, 1024u);
    EXPECT_EQ(one.exp, -10);

    const auto sub = detail::decodeBits(kHalf, 0x0001);
    EXPECT_EQ(sub.mag, 1u);
    EXPECT_EQ(sub.exp, -24);

    const auto negz = detail::decodeBits(kHalf, 0x8000);
    EXPECT_TRUE(negz.sign);
    EXPECT_EQ(negz.mag, 0u);
}

// --------------------------------------------------- oracle agreement

TEST(Oracles, ExactMatchesHostOnRandomCases)
{
    // The two oracles share no code (host = hardware FPU, exact =
    // integer arithmetic): agreement on biased random cases is strong
    // evidence for both. Production is deliberately not consulted.
    std::uint64_t compared = 0;
    for (const Format f : {kHalf, kSingle, kDouble, kBfloat16}) {
        Rng rng(0x0aac1e ^ f.totalBits);
        for (int i = 0; i < 4000; ++i) {
            const Case c = genCase(rng, f, {});
            const OracleResult host = hostOracle(c);
            if (!host.supported)
                continue;
            const OracleResult exact = exactOracle(c);
            ASSERT_TRUE(exact.supported);
            ASSERT_EQ(exact.bits, host.bits)
                << corpusLine(c) << "\n  host:  "
                << fp::fpDescribe(c.resultFormat(), host.bits)
                << "\n  exact: "
                << fp::fpDescribe(c.resultFormat(), exact.bits);
            ++compared;
        }
    }
    // The host oracle must actually have covered a healthy share.
    EXPECT_GT(compared, 8000u);
}

TEST(Oracles, ExactSpotValues)
{
    // A few independently hand-computed anchors.
    const Case add{VOp::Add, kHalf, kHalf, 0x3c00, 0x3c00, 0};
    EXPECT_EQ(exactOracle(add).bits, 0x4000u);  // 1 + 1 = 2

    // 2^-14 * 2^-1 = 2^-15: exactly the subnormal 0x0200.
    const Case mul{VOp::Mul, kHalf, kHalf, 0x0400, 0x3800, 0};
    EXPECT_EQ(exactOracle(mul).bits, 0x0200u);

    // 1 / 3 in binary16 = 0x3555 (RNE).
    const Case div{VOp::Div, kHalf, kHalf, 0x3c00, 0x4200, 0};
    EXPECT_EQ(exactOracle(div).bits, 0x3555u);

    // sqrt(2) in binary16 = 0x3da8.
    const Case sq{VOp::Sqrt, kHalf, kHalf, 0x4000, 0, 0};
    EXPECT_EQ(exactOracle(sq).bits, 0x3da8u);

    // fma(maxFinite, maxFinite, -inf) = -inf (no spurious NaN).
    const Case fma{VOp::Fma, kHalf, kHalf, 0x7bff, 0x7bff, 0xfc00};
    EXPECT_EQ(exactOracle(fma).bits, 0xfc00u);

    // Widening conversions are exact.
    Case cv{VOp::Convert, kHalf, kSingle, 0x3c01, 0, 0};
    EXPECT_EQ(exactOracle(cv).bits, 0x3f802000u);
}

TEST(Oracles, HostDeclinesDoubleRoundingHazards)
{
    // The corpus-pinned counterexample: double -> bfloat16 through a
    // float intermediate double-rounds, so the host must decline.
    const Case c{VOp::Convert, kDouble, kBfloat16,
                 0x3ff0100000000001ULL, 0, 0};
    EXPECT_FALSE(hostOracle(c).supported);
    // ...while the exact oracle gets the direct rounding right.
    EXPECT_EQ(exactOracle(c).bits, 0x3f81u);

    // Half fma: no correctly rounded native path.
    const Case hf{VOp::Fma, kHalf, kHalf, 0x3c01, 0x3c01, 0x8400};
    EXPECT_FALSE(hostOracle(hf).supported);

    // Transcendentals are never host territory.
    const Case ex{VOp::Exp, kDouble, kDouble, 0x3ff0000000000000ULL,
                  0, 0};
    EXPECT_FALSE(hostOracle(ex).supported);
}

// ----------------------------------------------------------- property

TEST(Properties, CleanResultHasNoViolations)
{
    const Case c{VOp::Add, kHalf, kHalf, 0x3c00, 0x4000, 0};
    const auto v = checkProperties(c, runProduction(c), {});
    EXPECT_TRUE(v.empty());
}

TEST(Properties, TaxonomyCatchesWrongSpecials)
{
    // sqrt(-1) must be the canonical quiet NaN; hand it 1.0 instead.
    const Case c{VOp::Sqrt, kHalf, kHalf, 0xbc00, 0, 0};
    EXPECT_FALSE(checkProperties(c, 0x3c00, {}).empty());
    EXPECT_TRUE(checkProperties(c, fp::quietNaN(kHalf), {}).empty());

    // A non-canonical (payload-carrying) NaN is also a violation.
    EXPECT_FALSE(checkProperties(c, 0x7e01, {}).empty());

    // x / 0 with finite nonzero x must be a signed infinity.
    const Case d{VOp::Div, kHalf, kHalf, 0xbc00, 0x0000, 0};
    EXPECT_TRUE(checkProperties(d, 0xfc00, {}).empty());
    EXPECT_FALSE(checkProperties(d, 0x7c00, {}).empty());
}

TEST(Properties, EnvelopeBoundsTranscendentals)
{
    // The production exp is within the envelope...
    const Case c{VOp::Exp, kHalf, kHalf, 0x3c00, 0, 0};
    EXPECT_TRUE(checkProperties(c, runProduction(c), {}).empty());
    // ...but a result 64 ULPs off is not.
    EXPECT_FALSE(
        checkProperties(c, runProduction(c) + 64, {}).empty());
}

TEST(Properties, CheckCaseAggregatesOracles)
{
    // End to end: production against all three oracles on anchors
    // drawn from every op class.
    const Case cases[] = {
        {VOp::Add, kHalf, kHalf, 0x3c00, 0x3c01, 0},
        {VOp::Sub, kSingle, kSingle, 0x3f800000, 0x3f800001, 0},
        {VOp::Mul, kBfloat16, kBfloat16, 0x3f80, 0x4049, 0},
        {VOp::Div, kDouble, kDouble, 0x3ff0000000000000ULL,
         0x4008000000000000ULL, 0},
        {VOp::Fma, kHalf, kHalf, 0x3c01, 0x3c01, 0xbc02},
        {VOp::Sqrt, kHalf, kHalf, 0x4000, 0, 0},
        {VOp::Exp, kHalf, kHalf, 0xc000, 0, 0},
        {VOp::Convert, kSingle, kHalf, 0x3f801000, 0, 0},
    };
    for (const Case &c : cases) {
        std::vector<Mismatch> out;
        EXPECT_TRUE(checkCase(c, {}, &out)) << corpusLine(c);
        EXPECT_TRUE(out.empty());
    }
}

TEST(Properties, MismatchRenderingIsActionable)
{
    // Force a mismatch via a property violation and check the report
    // carries a repro command and a corpus line.
    const Case c{VOp::Sqrt, kHalf, kHalf, 0x4400, 0, 0};
    Mismatch m{c, 0x4000, 0x4001, "exact", ""};
    const std::string text = describeMismatch(m);
    EXPECT_NE(text.find("mparch_verify"), std::string::npos);
    EXPECT_NE(text.find("sqrt half 0x4400"), std::string::npos);
    EXPECT_NE(text.find("exact"), std::string::npos);
}

// ------------------------------------------------------------- corpus

TEST(Corpus, LineRoundTripsThroughParser)
{
    Rng rng(0xc0b905);
    for (const Format f : {kHalf, kSingle, kDouble, kBfloat16, kTf32}) {
        for (int i = 0; i < 200; ++i) {
            const Case c = genCase(rng, f, {});
            std::string err;
            const auto parsed = parseCorpusLine(corpusLine(c), &err);
            ASSERT_TRUE(parsed.has_value()) << corpusLine(c) << ": "
                                            << err;
            EXPECT_EQ(static_cast<int>(parsed->op),
                      static_cast<int>(c.op));
            EXPECT_EQ(parsed->fmt.totalBits, c.fmt.totalBits);
            EXPECT_EQ(parsed->a, c.a);
            if (vopArity(c.op) >= 2) {
                EXPECT_EQ(parsed->b, c.b);
            }
            if (vopArity(c.op) >= 3) {
                EXPECT_EQ(parsed->c, c.c);
            }
            if (c.op == VOp::Convert) {
                EXPECT_EQ(parsed->dst.totalBits, c.dst.totalBits);
            }
        }
    }
}

TEST(Corpus, CommentsAndBlanksAreSkipped)
{
    std::string err;
    EXPECT_FALSE(parseCorpusLine("", &err).has_value());
    EXPECT_TRUE(err.empty());
    EXPECT_FALSE(parseCorpusLine("   # only a comment", &err)
                     .has_value());
    EXPECT_TRUE(err.empty());
    // Trailing comments on a case line are fine.
    EXPECT_TRUE(parseCorpusLine("add half 0x1 0x2  # note", &err)
                    .has_value());
}

TEST(Corpus, MalformedLinesReportErrors)
{
    const char *bad[] = {
        "frobnicate half 0x1 0x2",       // unknown op
        "add octuple 0x1 0x2",           // unknown format
        "add half 0x1",                  // missing operand
        "add half 0x1 0x2 0x3",          // extra operand
        "add half 0x1 zzz",              // bad hex
        "add half 0x1 0x12345",          // operand exceeds the format
        "convert half 0x3c00",           // missing destination format
        "sqrt",                          // missing everything
    };
    for (const char *line : bad) {
        std::string err;
        EXPECT_FALSE(parseCorpusLine(line, &err).has_value()) << line;
        EXPECT_FALSE(err.empty()) << line;
    }
}

// ---------------------------------------------------------- generator

TEST(Generator, OperandsStayInFormatAndHitSpecials)
{
    for (const Format f : {kHalf, kBfloat16, kTf32}) {
        Rng rng(0x9e4 ^ f.totalBits);
        bool saw_zero = false, saw_inf = false, saw_nan = false,
             saw_sub = false;
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t v = genOperand(rng, f);
            ASSERT_EQ(v & ~f.valueMask(), 0u);
            saw_zero |= fp::isZero(f, v);
            saw_inf |= fp::isInf(f, v);
            saw_nan |= fp::isNaN(f, v);
            saw_sub |= fp::classify(f, v) == fp::FpClass::Subnormal;
        }
        EXPECT_TRUE(saw_zero && saw_inf && saw_nan && saw_sub);
    }
}

TEST(Generator, RespectsOpRestriction)
{
    Rng rng(7);
    const std::vector<VOp> only{VOp::Div, VOp::Sqrt};
    std::set<int> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(static_cast<int>(genCase(rng, kHalf, only).op));
    EXPECT_LE(seen.size(), 2u);
    for (const int op : seen) {
        EXPECT_TRUE(op == static_cast<int>(VOp::Div) ||
                    op == static_cast<int>(VOp::Sqrt));
    }
}

// ----------------------------------------------------------- shrinker

TEST(Shrinker, ReducesToMinimalFailingPattern)
{
    // Synthetic predicate: fails whenever operand a has its top
    // mantissa bit set. The shrinker simplifies toward that bit alone
    // on an exponent pulled to the bias (a value in [1, 2)) and zeros
    // the irrelevant operand.
    const auto fails = [](const Case &c) {
        return (c.a >> 9) & 1;
    };
    Case c{VOp::Add, kHalf, kHalf, 0x7abf, 0x1234, 0};
    ASSERT_TRUE(fails(c));
    const Case s = shrinkCase(c, fails);
    EXPECT_TRUE(fails(s));
    EXPECT_EQ(s.a, 0x3e00u);  // 1.5: biased exp 15, lone mantissa bit 9
    EXPECT_EQ(s.b, 0u);       // irrelevant operand shrinks to zero
}

TEST(Shrinker, IsDeterministicAndNeverPassesUp)
{
    // Whatever the predicate, the shrunk case must still fail and two
    // runs must agree bit for bit.
    Rng rng(0x517);
    for (int i = 0; i < 50; ++i) {
        Case c = genCase(rng, kHalf, {});
        const std::uint64_t mask = rng.next() & 0x3ff;
        const auto fails = [mask](const Case &k) {
            return (k.a & mask) != 0 || (k.b & mask) != 0;
        };
        if (!fails(c))
            continue;
        const Case s1 = shrinkCase(c, fails);
        const Case s2 = shrinkCase(c, fails);
        EXPECT_TRUE(fails(s1));
        EXPECT_EQ(s1.a, s2.a);
        EXPECT_EQ(s1.b, s2.b);
        EXPECT_EQ(s1.c, s2.c);
    }
}

// ------------------------------------------------- jobs determinism

TEST(SweepDeterminism, ExhaustiveUnaryReportIndependentOfJobs)
{
    SweepConfig one;
    one.jobs = 1;
    SweepConfig three;
    three.jobs = 3;
    const SweepReport a = sweepUnary(VOp::Sqrt, kHalf, one);
    const SweepReport b = sweepUnary(VOp::Sqrt, kHalf, three);
    EXPECT_EQ(a.cases, 0x10000u);
    EXPECT_EQ(a.cases, b.cases);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(a.mismatches, 0u);
    EXPECT_EQ(a.sample.size(), b.sample.size());
}

TEST(SweepDeterminism, SampledPairReportIndependentOfJobs)
{
    SweepConfig cfg;
    cfg.samples = 20000;
    cfg.seed = 42;
    cfg.jobs = 1;
    const SweepReport a = sweepPairs(VOp::Mul, kSingle, cfg);
    cfg.jobs = 3;
    const SweepReport b = sweepPairs(VOp::Mul, kSingle, cfg);
    EXPECT_EQ(a.cases, 20000u);
    EXPECT_EQ(a.cases, b.cases);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(a.mismatches, 0u);
}

TEST(SweepDeterminism, ConvertSweepCoversSpaceExactly)
{
    SweepConfig cfg;
    cfg.jobs = 2;
    const SweepReport r = sweepConvert(kHalf, kSingle, cfg);
    EXPECT_EQ(r.cases, 0x10000u);
    EXPECT_TRUE(r.ok());
}

TEST(FuzzDeterminism, ReportIndependentOfJobs)
{
    FuzzConfig cfg;
    cfg.trials = 20000;
    cfg.seed = 3;
    cfg.jobs = 1;
    const FuzzReport a = fuzzFormat(kHalf, cfg);
    cfg.jobs = 3;
    const FuzzReport b = fuzzFormat(kHalf, cfg);
    EXPECT_EQ(a.trials, 20000u);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.failures, 0u);
    EXPECT_EQ(a.sample.size(), b.sample.size());
}

TEST(FuzzDeterminism, Tf32FuzzIsCleanToo)
{
    // tf32 has no host oracle at all: this leg leans entirely on the
    // exact reference and the property checks.
    FuzzConfig cfg;
    cfg.trials = 20000;
    cfg.seed = 5;
    cfg.jobs = 2;
    EXPECT_TRUE(fuzzFormat(kTf32, cfg).ok());
}

} // namespace
} // namespace mparch::verify

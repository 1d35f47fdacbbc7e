/**
 * @file
 * Machine-checked shape targets.
 *
 * The paper's FIT values are in arbitrary units, so its actual
 * claims are *shapes*: orderings, ratios, crossovers and growing
 * shares. A ShapeCheck turns each one into an executable
 * predicate over an experiment's ResultDoc with an explicit
 * pass/fail verdict and a human-readable "observed" trace.
 *
 * The vocabulary:
 *  - decreasesAlong / increasesAlong / shareGrows: monotone series
 *    (with optional relative slack);
 *  - exceeds: scalar A > factor * scalar B;
 *  - ratioWithin: A / B inside [lo, hi];
 *  - nearlyEqual: |A - B| <= absolute tolerance;
 *  - flatWithin: max/min of a series below a ratio bound;
 *  - allBelow / allAbove: series against a constant bound;
 *  - crossoverAt: series A starts at-or-above series B and ends
 *    below it, with the crossing index inside a window;
 *  - custom: escape hatch for one-off predicates.
 *
 * Series are addressed declaratively with a Selector — table name,
 * value column, and equality filters on key columns — so checks
 * read like the prose they replace.
 */

#ifndef MPARCH_REPORT_SHAPECHECK_HH
#define MPARCH_REPORT_SHAPECHECK_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "report/document.hh"

namespace mparch::report {

/**
 * Addresses a numeric series inside a ResultDoc: the @p column cells
 * of every row of @p table whose key columns match @p where (in row
 * order). An empty table name means the document's first table.
 */
struct Selector
{
    std::string column;
    std::string table;
    std::vector<std::pair<std::string, std::string>> where;

    /** Human-readable form, e.g. "fit-sdc[benchmark=mnist]". */
    std::string describe() const;
};

/** Build a selector: column, optional filters, optional table. */
Selector sel(std::string column,
             std::vector<std::pair<std::string, std::string>> where =
                 {},
             std::string table = {});

/**
 * Extract the selected series.
 *
 * @param error On failure (missing table/column, text cell, no
 *              matching rows) receives the reason; the returned
 *              series is empty then.
 */
std::vector<double> extract(const ResultDoc &doc,
                            const Selector &selector,
                            std::string *error);

/** Outcome of evaluating one predicate. */
struct CheckOutcome
{
    bool pass = false;
    std::string observed;
};

/** One executable shape target. */
struct ShapeCheck
{
    std::string id;           ///< stable identifier ("fit-drops")
    std::string description;  ///< the prose claim
    std::function<CheckOutcome(const ResultDoc &)> eval;
};

/** Evaluate one check into a document verdict. */
CheckVerdict evaluate(const ShapeCheck &check, const ResultDoc &doc);

/** Evaluate a batch, appending verdicts to @p doc. */
void evaluateAll(const std::vector<ShapeCheck> &checks,
                 ResultDoc &doc);

/** Generic predicate (the other constructors build on this). */
ShapeCheck custom(std::string id, std::string description,
                  std::function<CheckOutcome(const ResultDoc &)> fn);

/**
 * Series is strictly decreasing, modulo relative slack: each element
 * must satisfy v[i+1] < v[i] * (1 + slack). Needs >= 2 elements.
 */
ShapeCheck decreasesAlong(std::string id, std::string description,
                          Selector series, double slack = 0.0);

/** Series is strictly increasing (v[i+1] > v[i] * (1 - slack)). */
ShapeCheck increasesAlong(std::string id, std::string description,
                          Selector series, double slack = 0.0);

/**
 * A share (fraction in [0, 1]) grows along the series — the paper's
 * "critical share grows as precision shrinks" claims. Identical
 * monotonicity test to increasesAlong plus a range sanity check.
 */
ShapeCheck shareGrows(std::string id, std::string description,
                      Selector series, double slack = 0.0);

/** Scalar A exceeds factor * scalar B. Selectors must be scalar
 *  (exactly one matching row). */
ShapeCheck exceeds(std::string id, std::string description,
                   Selector a, Selector b, double factor = 1.0);

/** Scalar ratio A / B lies within [lo, hi]. */
ShapeCheck ratioWithin(std::string id, std::string description,
                       Selector numerator, Selector denominator,
                       double lo, double hi);

/** |A - B| <= tolerance (scalars). */
ShapeCheck nearlyEqual(std::string id, std::string description,
                       Selector a, Selector b, double tolerance);

/** max(series) / min(series) <= maxRatio ("roughly flat"). */
ShapeCheck flatWithin(std::string id, std::string description,
                      Selector series, double maxRatio);

/** Every element of the series is strictly below @p bound. */
ShapeCheck allBelow(std::string id, std::string description,
                    Selector series, double bound);

/** Every element of the series is strictly above @p bound. */
ShapeCheck allAbove(std::string id, std::string description,
                    Selector series, double bound);

/**
 * Series A starts at-or-above series B and crosses below it exactly
 * where the paper says: the first index i with A[i] < B[i] must lie
 * in [loIndex, hiIndex]. Both series must have equal length >= 2.
 */
ShapeCheck crossoverAt(std::string id, std::string description,
                       Selector a, Selector b, std::size_t loIndex,
                       std::size_t hiIndex);

} // namespace mparch::report

#endif // MPARCH_REPORT_SHAPECHECK_HH

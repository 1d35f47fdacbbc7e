#include "report/shapecheck.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace mparch::report {

namespace {

/** Compact %g rendering for observed-value traces. */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

std::string
joinSeries(const std::vector<double> &series)
{
    std::string out;
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (i)
            out += ", ";
        out += num(series[i]);
    }
    return out;
}

CheckOutcome
failure(const std::string &why)
{
    return {false, why};
}

/** Extract or produce a failure outcome describing why not. */
bool
series(const ResultDoc &doc, const Selector &selector,
       std::vector<double> &out, CheckOutcome &fail_out)
{
    std::string error;
    out = extract(doc, selector, &error);
    if (out.empty()) {
        fail_out = failure("cannot extract " + selector.describe() +
                           ": " + error);
        return false;
    }
    return true;
}

bool
scalar(const ResultDoc &doc, const Selector &selector, double &out,
       CheckOutcome &fail_out)
{
    std::vector<double> values;
    if (!series(doc, selector, values, fail_out))
        return false;
    if (values.size() != 1) {
        fail_out = failure(selector.describe() + " matched " +
                           std::to_string(values.size()) +
                           " rows, expected exactly 1");
        return false;
    }
    out = values[0];
    return true;
}

CheckOutcome
monotone(const ResultDoc &doc, const Selector &selector, double slack,
         bool decreasing, bool share)
{
    std::vector<double> values;
    CheckOutcome fail_out;
    if (!series(doc, selector, values, fail_out))
        return fail_out;
    if (values.size() < 2)
        return failure(selector.describe() +
                       " has fewer than 2 rows");
    bool ok = true;
    if (share) {
        for (double v : values)
            ok = ok && v >= 0.0 && v <= 1.0;
        if (!ok)
            return failure("share outside [0,1]: " +
                           joinSeries(values));
    }
    for (std::size_t i = 0; i + 1 < values.size(); ++i) {
        if (decreasing)
            ok = ok && values[i + 1] < values[i] * (1.0 + slack);
        else
            ok = ok && values[i + 1] > values[i] * (1.0 - slack);
    }
    const char *arrow = decreasing ? " falling" : " rising";
    return {ok, selector.describe() + " = [" + joinSeries(values) +
                    "]" + (ok ? arrow : " NOT monotone")};
}

} // namespace

std::string
Selector::describe() const
{
    std::string out = column;
    if (!where.empty()) {
        out += "[";
        for (std::size_t i = 0; i < where.size(); ++i) {
            if (i)
                out += ",";
            out += where[i].first + "=" + where[i].second;
        }
        out += "]";
    }
    if (!table.empty())
        out += "@" + table;
    return out;
}

Selector
sel(std::string column,
    std::vector<std::pair<std::string, std::string>> where,
    std::string table)
{
    Selector out;
    out.column = std::move(column);
    out.where = std::move(where);
    out.table = std::move(table);
    return out;
}

std::vector<double>
extract(const ResultDoc &doc, const Selector &selector,
        std::string *error)
{
    const ResultTable *table = nullptr;
    if (selector.table.empty()) {
        if (!doc.tables.empty())
            table = &doc.tables.front();
    } else {
        table = doc.table(selector.table);
    }
    if (!table) {
        if (error)
            *error = "no such table '" + selector.table + "'";
        return {};
    }
    const int value_col = table->columnIndex(selector.column);
    if (value_col < 0) {
        if (error)
            *error = "no column '" + selector.column + "' in table '" +
                     table->name() + "'";
        return {};
    }
    std::vector<int> key_cols;
    for (const auto &clause : selector.where) {
        const int key = table->columnIndex(clause.first);
        if (key < 0) {
            if (error)
                *error = "no key column '" + clause.first + "'";
            return {};
        }
        key_cols.push_back(key);
    }

    std::vector<double> out;
    for (const auto &cells : table->rows()) {
        bool match = true;
        for (std::size_t k = 0; k < key_cols.size(); ++k) {
            const auto &cell =
                cells[static_cast<std::size_t>(key_cols[k])];
            match = match &&
                    cell.formatted() == selector.where[k].second;
        }
        if (!match)
            continue;
        const auto &cell =
            cells[static_cast<std::size_t>(value_col)];
        bool numeric = false;
        const double v = cell.asNumber(&numeric);
        if (!numeric) {
            if (error)
                *error = "column '" + selector.column +
                         "' holds text, not numbers";
            return {};
        }
        out.push_back(v);
    }
    if (out.empty() && error)
        *error = "no rows match the filter";
    return out;
}

CheckVerdict
evaluate(const ShapeCheck &check, const ResultDoc &doc)
{
    const CheckOutcome outcome = check.eval(doc);
    CheckVerdict verdict;
    verdict.id = check.id;
    verdict.description = check.description;
    verdict.observed = outcome.observed;
    verdict.pass = outcome.pass;
    return verdict;
}

void
evaluateAll(const std::vector<ShapeCheck> &checks, ResultDoc &doc)
{
    for (const auto &check : checks)
        doc.verdicts.push_back(evaluate(check, doc));
}

ShapeCheck
custom(std::string id, std::string description,
       std::function<CheckOutcome(const ResultDoc &)> fn)
{
    return {std::move(id), std::move(description), std::move(fn)};
}

ShapeCheck
decreasesAlong(std::string id, std::string description,
               Selector series_sel, double slack)
{
    return custom(std::move(id), std::move(description),
                  [series_sel, slack](const ResultDoc &doc) {
                      return monotone(doc, series_sel, slack, true,
                                      false);
                  });
}

ShapeCheck
increasesAlong(std::string id, std::string description,
               Selector series_sel, double slack)
{
    return custom(std::move(id), std::move(description),
                  [series_sel, slack](const ResultDoc &doc) {
                      return monotone(doc, series_sel, slack, false,
                                      false);
                  });
}

ShapeCheck
shareGrows(std::string id, std::string description,
           Selector series_sel, double slack)
{
    return custom(std::move(id), std::move(description),
                  [series_sel, slack](const ResultDoc &doc) {
                      return monotone(doc, series_sel, slack, false,
                                      true);
                  });
}

ShapeCheck
exceeds(std::string id, std::string description, Selector a,
        Selector b, double factor)
{
    return custom(
        std::move(id), std::move(description),
        [a, b, factor](const ResultDoc &doc) {
            CheckOutcome fail_out;
            double va = 0.0, vb = 0.0;
            if (!scalar(doc, a, va, fail_out))
                return fail_out;
            if (!scalar(doc, b, vb, fail_out))
                return fail_out;
            const bool ok = va > factor * vb;
            std::string observed = a.describe() + " = " + num(va) +
                                   (ok ? " > " : " NOT > ");
            if (factor != 1.0)
                observed += num(factor) + " * ";
            observed += b.describe() + " = " + num(vb);
            return CheckOutcome{ok, observed};
        });
}

ShapeCheck
ratioWithin(std::string id, std::string description,
            Selector numerator, Selector denominator, double lo,
            double hi)
{
    return custom(
        std::move(id), std::move(description),
        [numerator, denominator, lo, hi](const ResultDoc &doc) {
            CheckOutcome fail_out;
            double vn = 0.0, vd = 0.0;
            if (!scalar(doc, numerator, vn, fail_out))
                return fail_out;
            if (!scalar(doc, denominator, vd, fail_out))
                return fail_out;
            if (vd == 0.0)
                return failure(denominator.describe() + " is zero");
            const double ratio = vn / vd;
            const bool ok = ratio >= lo && ratio <= hi;
            return CheckOutcome{
                ok, numerator.describe() + " / " +
                        denominator.describe() + " = " + num(ratio) +
                        (ok ? " within [" : " OUTSIDE [") + num(lo) +
                        ", " + num(hi) + "]"};
        });
}

ShapeCheck
flatWithin(std::string id, std::string description,
           Selector series_sel, double maxRatio)
{
    return custom(
        std::move(id), std::move(description),
        [series_sel, maxRatio](const ResultDoc &doc) {
            std::vector<double> values;
            CheckOutcome fail_out;
            if (!series(doc, series_sel, values, fail_out))
                return fail_out;
            double lo = values[0], hi = values[0];
            for (double v : values) {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
            if (lo <= 0.0)
                return failure(series_sel.describe() +
                               " has non-positive values: " +
                               joinSeries(values));
            const double spread = hi / lo;
            const bool ok = spread <= maxRatio;
            return CheckOutcome{
                ok, series_sel.describe() + " spread max/min = " +
                        num(spread) + (ok ? " <= " : " EXCEEDS ") +
                        num(maxRatio)};
        });
}

ShapeCheck
allBelow(std::string id, std::string description, Selector series_sel,
         double bound)
{
    return custom(
        std::move(id), std::move(description),
        [series_sel, bound](const ResultDoc &doc) {
            std::vector<double> values;
            CheckOutcome fail_out;
            if (!series(doc, series_sel, values, fail_out))
                return fail_out;
            bool ok = true;
            for (double v : values)
                ok = ok && v < bound;
            return CheckOutcome{ok, series_sel.describe() + " = [" +
                                        joinSeries(values) + "]" +
                                        (ok ? " all < " : " NOT all < ") +
                                        num(bound)};
        });
}

ShapeCheck
allAbove(std::string id, std::string description, Selector series_sel,
         double bound)
{
    return custom(
        std::move(id), std::move(description),
        [series_sel, bound](const ResultDoc &doc) {
            std::vector<double> values;
            CheckOutcome fail_out;
            if (!series(doc, series_sel, values, fail_out))
                return fail_out;
            bool ok = true;
            for (double v : values)
                ok = ok && v > bound;
            return CheckOutcome{ok, series_sel.describe() + " = [" +
                                        joinSeries(values) + "]" +
                                        (ok ? " all > " : " NOT all > ") +
                                        num(bound)};
        });
}

} // namespace mparch::report

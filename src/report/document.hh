/**
 * @file
 * The structured result document every experiment produces.
 *
 * A ResultDoc is everything an experiment (or a study, see
 * report/study.hh) reports: one or more named tables of typed cells,
 * free-text notes, and — once the registry's shape checks have run —
 * a list of pass/fail verdicts against the paper's qualitative
 * claims. Documents render to the classic column-aligned text
 * tables, to JSON (stable schema, one file per experiment) and to
 * CSV (one file per table).
 */

#ifndef MPARCH_REPORT_DOCUMENT_HH
#define MPARCH_REPORT_DOCUMENT_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

namespace mparch::report {

/**
 * One table cell: text, real (with display precision) or integer.
 *
 * The display precision only affects text/CSV rendering; JSON always
 * carries the full double so downstream tooling never loses bits.
 */
struct Cell
{
    enum class Kind { Text, Real, Int };

    Cell(std::string text)  // NOLINT(google-explicit-constructor)
        : kind(Kind::Text), text(std::move(text))
    {
    }
    Cell(const char *text)  // NOLINT(google-explicit-constructor)
        : kind(Kind::Text), text(text)
    {
    }
    Cell(double value, int digits = 3)
        : kind(Kind::Real), real(value), digits(digits)
    {
    }
    Cell(std::int64_t value)  // NOLINT(google-explicit-constructor)
        : kind(Kind::Int), integer(value)
    {
    }

    Kind kind;
    std::string text;
    double real = 0.0;
    std::int64_t integer = 0;
    int digits = 3;

    /** Numeric view (Real/Int only). @p ok reports convertibility. */
    double asNumber(bool *ok = nullptr) const;

    /** Rendered form, as the text table/CSV shows it. */
    std::string formatted() const;
};

/** A named table of typed rows. */
class ResultTable
{
  public:
    ResultTable(std::string name, std::vector<std::string> columns)
        : name_(std::move(name)), columns_(std::move(columns))
    {
    }

    const std::string &name() const { return name_; }
    const std::vector<std::string> &columns() const
    {
        return columns_;
    }
    const std::vector<std::vector<Cell>> &rows() const
    {
        return rows_;
    }
    std::size_t rowCount() const { return rows_.size(); }

    /** Start a new row; subsequent cell() calls fill it. */
    ResultTable &row();

    /** Append a cell to the current row. */
    ResultTable &cell(Cell value);

    /** Column index by header name; -1 when absent. */
    int columnIndex(const std::string &column) const;

    /** Cell at (row, column name); null when out of range. */
    const Cell *at(std::size_t row, const std::string &column) const;

  private:
    std::string name_;
    std::vector<std::string> columns_;
    std::vector<std::vector<Cell>> rows_;
};

/** Verdict of one shape check against one document. */
struct CheckVerdict
{
    std::string id;           ///< stable check identifier
    std::string description;  ///< the prose claim being tested
    std::string observed;     ///< what the data showed
    bool pass = false;
};

/** Everything one experiment run produced. */
struct ResultDoc
{
    /** Experiment identity (filled by the runner). */
    std::string experiment;
    std::string paperRef;
    std::string kind;
    std::string title;
    std::string shapeTarget;

    /** Effective knobs of the run. */
    std::uint64_t trials = 0;
    double scale = 0.0;
    unsigned jobs = 0;

    /** Deque, not vector: run closures hold references to earlier
     *  tables while appending later ones (e.g. a summary table
     *  filled alongside per-series curve tables), so addTable must
     *  never invalidate them. */
    std::deque<ResultTable> tables;
    std::vector<std::string> notes;
    std::vector<CheckVerdict> verdicts;

    /** Append a table and return a reference that stays valid across
     *  further addTable calls. */
    ResultTable &addTable(std::string name,
                          std::vector<std::string> columns);

    /** Table by name; null when absent. */
    const ResultTable *table(const std::string &name) const;

    /** True when every verdict passed (vacuously true if none). */
    bool allPassed() const;

    /** Render tables, notes and verdicts as the classic text
     *  report. */
    void print(std::ostream &os) const;

    /** Emit the stable JSON document. */
    void writeJson(std::ostream &os) const;

    /** Emit one table as CSV. */
    static void writeCsv(const ResultTable &table, std::ostream &os);
};

} // namespace mparch::report

#endif // MPARCH_REPORT_DOCUMENT_HH

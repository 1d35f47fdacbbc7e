/**
 * @file
 * Fixed-width text table and CSV emitters.
 *
 * Result documents (report/document.hh) and the command-line tools
 * render their rows through this class in a uniform, diff-friendly
 * layout; it can also dump CSV for external plotting.
 */

#ifndef MPARCH_COMMON_TABLE_HH
#define MPARCH_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace mparch {

/**
 * A simple column-aligned table builder.
 *
 * Cells are strings; numeric convenience overloads format with a
 * fixed precision. Rendering pads each column to its widest cell.
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Optional title printed above the table. */
    void setTitle(std::string title) { title_ = std::move(title); }

    /** Start a new row; subsequent cell() calls fill it. */
    Table &row();

    /** Append a string cell to the current row. */
    Table &cell(const std::string &text);

    /** Append a formatted numeric cell (fixed, @p digits decimals). */
    Table &cell(double value, int digits = 3);

    /** Append an integer cell. */
    Table &cell(std::int64_t value);

    /** Render the table, column-aligned. */
    void print(std::ostream &os) const;

    /** Render as CSV (no padding, comma separated, quoted as needed). */
    void printCsv(std::ostream &os) const;

    /** Number of data rows so far. */
    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace mparch

#endif // MPARCH_COMMON_TABLE_HH

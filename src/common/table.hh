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
 * Cells are strings. Rendering pads each column to its widest cell.
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

    /** Render the table, column-aligned. */
    void print(std::ostream &os) const;

    /** Render as CSV (no padding, comma separated, quoted as needed). */
    void printCsv(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace mparch

#endif // MPARCH_COMMON_TABLE_HH

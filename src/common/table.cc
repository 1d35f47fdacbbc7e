#include "table.hh"

#include <algorithm>
#include <iomanip>

#include "logging.hh"

namespace mparch {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    MPARCH_ASSERT(!headers_.empty(), "a table needs at least one column");
}

Table &
Table::row()
{
    rows_.emplace_back();
    return *this;
}

Table &
Table::cell(const std::string &text)
{
    MPARCH_ASSERT(!rows_.empty(), "call row() before cell()");
    MPARCH_ASSERT(rows_.back().size() < headers_.size(),
                  "row has more cells than headers");
    rows_.back().push_back(text);
    return *this;
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    if (!title_.empty())
        os << "== " << title_ << " ==\n";

    auto emitRow = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string &text = c < cells.size() ? cells[c] : "";
            os << (c ? "  " : "") << std::left
               << std::setw(static_cast<int>(widths[c])) << text;
        }
        os << '\n';
    };

    emitRow(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emitRow(row);
}

void
Table::printCsv(std::ostream &os) const
{
    auto quote = [](const std::string &text) {
        if (text.find_first_of(",\"\n") == std::string::npos)
            return text;
        std::string out = "\"";
        for (char ch : text) {
            if (ch == '"')
                out += '"';
            out += ch;
        }
        out += '"';
        return out;
    };
    auto emitRow = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << (c ? "," : "") << quote(cells[c]);
        os << '\n';
    };
    emitRow(headers_);
    for (const auto &row : rows_)
        emitRow(row);
}

} // namespace mparch

#include "base/output.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"

namespace jscale {

void
TextTable::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
    aligns_.assign(header_.size(), Align::Right);
    if (!aligns_.empty())
        aligns_[0] = Align::Left;
}

void
TextTable::row(std::vector<std::string> cells)
{
    if (!header_.empty()) {
        jscale_assert(cells.size() == header_.size(),
                      "row width ", cells.size(), " != header width ",
                      header_.size());
    }
    rows_.push_back(std::move(cells));
}

void
TextTable::align(std::size_t col, Align a)
{
    if (aligns_.size() <= col)
        aligns_.resize(col + 1, Align::Right);
    aligns_[col] = a;
}

void
TextTable::print(std::ostream &os) const
{
    std::size_t n_cols = header_.size();
    for (const auto &r : rows_)
        n_cols = std::max(n_cols, r.size());
    if (n_cols == 0)
        return;

    std::vector<std::size_t> widths(n_cols, 0);
    auto measure = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            widths[c] = std::max(widths[c], cells[c].size());
    };
    measure(header_);
    for (const auto &r : rows_)
        measure(r);

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < n_cols; ++c) {
            const std::string &cell = c < cells.size() ? cells[c]
                                                       : std::string();
            const Align a = c < aligns_.size() ? aligns_[c] : Align::Right;
            const std::size_t pad = widths[c] - cell.size();
            if (a == Align::Right)
                os << std::string(pad, ' ') << cell;
            else
                os << cell << std::string(pad, ' ');
            os << (c + 1 < n_cols ? "  " : "");
        }
        os << '\n';
    };

    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t c = 0; c < n_cols; ++c)
            total += widths[c] + (c + 1 < n_cols ? 2 : 0);
        os << std::string(total, '-') << '\n';
    }
    for (const auto &r : rows_)
        emit(r);
}

std::string
TextTable::str() const
{
    std::ostringstream oss;
    print(oss);
    return oss.str();
}

void
CsvWriter::row(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            os_ << ',';
        os_ << quote(cells[i]);
    }
    os_ << '\n';
}

std::string
CsvWriter::quote(const std::string &cell)
{
    const bool needs = cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs)
        return cell;
    std::string out = "\"";
    for (char ch : cell) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

Cell
Cell::label(std::string s)
{
    return {s, s};
}

Cell
Cell::count(std::uint64_t v)
{
    return label(std::to_string(v));
}

Cell
Cell::ticks(Ticks v)
{
    return {formatTicks(v), std::to_string(v)};
}

Cell
Cell::meanTicks(double v)
{
    return {formatTicks(static_cast<Ticks>(v)), formatFixed(v, 0)};
}

Cell
Cell::bytes(Bytes v)
{
    return {formatBytes(v), std::to_string(v)};
}

Cell
Cell::share(double v, int csv_digits)
{
    return {formatPercent(v), formatFixed(v, csv_digits)};
}

Cell
Cell::fixed(double v, int text_digits, int csv_digits)
{
    return {formatFixed(v, text_digits), formatFixed(v, csv_digits)};
}

Cell
Cell::missing()
{
    return {"-", ""};
}

namespace {

/** Whether a column of form @p column appears in rendering @p form. */
bool
shows(Form column, Form form)
{
    return column == Form::Both || column == form;
}

} // namespace

ReportTable::ReportTable(std::string title, std::vector<Column> columns)
    : title_(std::move(title)), columns_(std::move(columns))
{
}

std::size_t
ReportTable::width(Form form) const
{
    std::size_t n = 0;
    for (const Column &c : columns_)
        n += form == Form::Both || shows(c.form, form);
    return n;
}

void
ReportTable::row(std::vector<Cell> cells, Form form)
{
    jscale_assert(cells.size() == columns_.size() ||
                      cells.size() == width(form),
                  "row of ", cells.size(), " cells in a table of ",
                  columns_.size(), " columns");
    rows_.push_back({std::move(cells), form});
}

void
ReportTable::missingRow(std::vector<Cell> lead, Cell last)
{
    const std::size_t n = width(Form::Text);
    jscale_assert(lead.size() < n, "missing row wider than the table");
    lead.resize(n, Cell::missing());
    lead.back() = std::move(last);
    row(std::move(lead), Form::Text);
}

std::vector<std::string>
ReportTable::header(Form form) const
{
    std::vector<std::string> out;
    for (const Column &c : columns_) {
        if (shows(c.form, form))
            out.push_back(form == Form::Text ? c.text : c.csv);
    }
    return out;
}

std::vector<std::string>
ReportTable::cells(const Row &r, Form form) const
{
    // A full-width row keeps the cells of this form's columns; a
    // one-form row already holds exactly those.
    const bool full = r.cells.size() == columns_.size();
    std::vector<std::string> out;
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
        if (full && !shows(columns_[i].form, form))
            continue;
        out.push_back(form == Form::Text ? r.cells[i].text
                                         : r.cells[i].csv);
    }
    return out;
}

void
ReportTable::print(std::ostream &os) const
{
    os << title_;
    TextTable t;
    t.header(header(Form::Text));
    for (const Row &r : rows_) {
        if (r.form != Form::Csv)
            t.row(cells(r, Form::Text));
    }
    if (t.rows() > 0)
        t.print(os);
    os << footer_;
}

void
ReportTable::writeCsv(std::ostream &os) const
{
    CsvWriter csv(os);
    csv.row(header(Form::Csv));
    for (const Row &r : rows_) {
        if (r.form != Form::Text)
            csv.row(cells(r, Form::Csv));
    }
}

void
ReportTable::render(std::ostream &os, bool csv) const
{
    print(os);
    if (csv) {
        os << '\n';
        writeCsv(os);
    }
}

} // namespace jscale

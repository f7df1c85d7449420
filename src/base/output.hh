/**
 * @file
 * Tabular output helpers: an aligned plain-text table renderer for
 * console reports, an RFC-4180-style CSV writer for machine-readable
 * experiment output, and ReportTable, which defines a report table once
 * and renders it through either. Every bench emits both forms.
 */

#ifndef JSCALE_BASE_OUTPUT_HH
#define JSCALE_BASE_OUTPUT_HH

#include <ostream>
#include <string>
#include <vector>

#include "base/units.hh"

namespace jscale {

/**
 * Aligned text table. Columns are sized to their widest cell; the first
 * row added is rendered as a header with an underline.
 */
class TextTable
{
  public:
    /** Column alignment. */
    enum class Align { Left, Right };

    /** Create a table with one alignment entry per column (default right,
     *  first column left). */
    TextTable() = default;

    /** Set the header row; resets alignment defaults. */
    void header(std::vector<std::string> cells);

    /** Append a data row; must match the header width if one was set. */
    void row(std::vector<std::string> cells);

    /** Override the alignment of column @p col. */
    void align(std::size_t col, Align a);

    /** Render to a stream with two-space column separation. */
    void print(std::ostream &os) const;

    /** Render to a string. */
    std::string str() const;

    /** Number of data rows. */
    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<Align> aligns_;
};

/**
 * Minimal CSV writer. Quotes cells containing separators/quotes/newlines
 * and doubles embedded quotes, per RFC 4180.
 */
class CsvWriter
{
  public:
    /** Write rows to @p os. */
    explicit CsvWriter(std::ostream &os) : os_(os) {}

    /** Write one row. */
    void row(const std::vector<std::string> &cells);

    /** Convenience: write a row of stringified values. */
    template <typename... Args>
    void
    rowOf(Args &&...args)
    {
        row({toCell(std::forward<Args>(args))...});
    }

  private:
    static std::string quote(const std::string &cell);

    template <typename T>
    static std::string
    toCell(T &&v)
    {
        if constexpr (std::is_convertible_v<T, std::string>) {
            return std::string(std::forward<T>(v));
        } else {
            return std::to_string(v);
        }
    }

    std::ostream &os_;
};

/** The renderings a report column or row appears in. */
enum class Form { Both, Text, Csv };

/**
 * One report value, rendered once for aligned text and once for CSV.
 * Build cells from the value kinds below, so that each kind has one
 * text format and one CSV format in every table.
 */
struct Cell
{
    std::string text;
    std::string csv;

    /** A name or class, the same in both forms. */
    static Cell label(std::string s);
    /** An integer count, in decimal in both forms. */
    static Cell count(std::uint64_t v);
    /** A duration: formatTicks() / integer nanoseconds. */
    static Cell ticks(Ticks v);
    /** A mean duration: formatTicks() of its integer part / rounded ns. */
    static Cell meanTicks(double v);
    /** A size: formatBytes() / integer bytes. */
    static Cell bytes(Bytes v);
    /** A fraction: formatPercent() / @p csv_digits decimals. */
    static Cell share(double v, int csv_digits = 4);
    /** A real number with @p text_digits / @p csv_digits decimals. */
    static Cell fixed(double v, int text_digits, int csv_digits);
    /** No value: "-" / empty. */
    static Cell missing();
};

/** One report column: its text header, CSV header and forms. */
struct Column
{
    std::string text;
    std::string csv;
    Form form = Form::Both;
};

/**
 * A report table defined once and rendered as aligned text (through
 * TextTable) and as CSV (through CsvWriter). Each row is marked with
 * the forms it appears in; each form renders only its own columns. The
 * title and footer are free text around the aligned table and never
 * appear in the CSV.
 */
class ReportTable
{
  public:
    ReportTable(std::string title, std::vector<Column> columns);

    /**
     * Append a row of one cell per column, or, for a one-form row, one
     * cell per column of that form.
     */
    void row(std::vector<Cell> cells, Form form = Form::Both);

    /**
     * Append a text-only row for a point without measurements: @p lead,
     * then "-" in every further text column, with @p last in the final
     * one.
     */
    void missingRow(std::vector<Cell> lead, Cell last = Cell::missing());

    /** Set the text printed after the aligned table. */
    void footer(std::string text) { footer_ = std::move(text); }

    /** Title, aligned table (when it has rows) and footer. */
    void print(std::ostream &os) const;

    /** Header and rows as CSV. */
    void writeCsv(std::ostream &os) const;

    /** print(), then, when @p csv, a blank line and writeCsv(). */
    void render(std::ostream &os, bool csv) const;

  private:
    struct Row
    {
        std::vector<Cell> cells;
        Form form;
    };

    std::size_t width(Form form) const;
    std::vector<std::string> header(Form form) const;
    std::vector<std::string> cells(const Row &r, Form form) const;

    std::string title_;
    std::string footer_;
    std::vector<Column> columns_;
    std::vector<Row> rows_;
};

} // namespace jscale

#endif // JSCALE_BASE_OUTPUT_HH

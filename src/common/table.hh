/**
 * @file
 * ASCII table formatter used by the figure reports and benches to print
 * paper-style rows (one row per benchmark, one column per configuration).
 */

#ifndef SDV_COMMON_TABLE_HH
#define SDV_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace sdv {

/** A simple column-aligned text table with an optional title. */
class TextTable
{
  public:
    /** @param title table caption printed above the header */
    explicit TextTable(std::string title = "");

    /** Set the column headers (defines the column count). */
    void setHeader(std::vector<std::string> header);

    /** Append a fully formed row; short rows are padded with "". */
    void addRow(std::vector<std::string> row);

    /** Append a row of a label plus numeric cells. */
    void addRow(const std::string &label, const std::vector<double> &cells,
                int precision = 2);

    /** Append a row of a label plus percentage cells (value 0..1). */
    void addPercentRow(const std::string &label,
                       const std::vector<double> &fractions,
                       int precision = 1);

    /** Append a horizontal separator row. */
    void addSeparator();

    /** Render the table to a string. */
    std::string render() const;

    /** @return number of data rows added so far. */
    size_t numRows() const { return rows_.size(); }

    /** Format a double with fixed precision. */
    static std::string num(double v, int precision = 2);

    /** Format a fraction 0..1 as a percentage string. */
    static std::string percent(double fraction, int precision = 1);

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
    static const std::string separatorTag;
};

} // namespace sdv

#endif // SDV_COMMON_TABLE_HH

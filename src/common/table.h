// Plain-text and CSV table rendering for benchmark/figure output.
//
// Every figure-reproduction binary prints its series as an aligned text
// table (human-readable in the terminal) and can optionally emit CSV for
// downstream plotting.  Keeping the emitters here means every bench target
// reports in the same format.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace p2plb {

/// Column-aligned text / CSV table builder.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  Table(std::initializer_list<std::string> headers);

  /// One table cell, implicitly constructible from a string or any
  /// arithmetic value, so a single add_row call can mix labels and
  /// numbers.  Integers render without a decimal point; floating-point
  /// values via num() with its default precision.
  struct Cell {
    std::string text;

    Cell(std::string s) : text(std::move(s)) {}
    Cell(std::string_view s) : text(s) {}
    Cell(const char* s) : text(s) {}
    template <typename T,
              typename = std::enable_if_t<std::is_arithmetic_v<T> &&
                                          !std::is_same_v<T, char>>>
    Cell(T v) {
      if constexpr (std::is_integral_v<T>) {
        text = std::to_string(v);
      } else {
        text = num(static_cast<double>(v));
      }
    }
  };

  /// Append a row; the cell count must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Append a row of mixed string/number cells, e.g.
  /// `table.add_row({"p99", h.quantile(0.99), n_samples});`.
  void add_row(std::initializer_list<Cell> cells);

  /// Convenience: format each value with the given precision.
  void add_row_numeric(std::initializer_list<double> values, int precision = 4);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t column_count() const noexcept {
    return headers_.size();
  }

  /// Render as an aligned text table with a header separator line.
  void print_text(std::ostream& os) const;

  /// Render as RFC 4180 CSV (cells containing commas, quotes, CR or LF
  /// are quoted, embedded quotes doubled).  See csv_field().
  void print_csv(std::ostream& os) const;

  /// Render as a GitHub-flavored Markdown table (pipes escaped).
  void print_markdown(std::ostream& os) const;

  /// Format a double with fixed precision, trimming trailing zeros.
  [[nodiscard]] static std::string num(double v, int precision = 4);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Quote one CSV field per RFC 4180: returned verbatim unless it contains
/// a comma, double quote, CR or LF, in which case it is wrapped in double
/// quotes with embedded quotes doubled.  The single escaping routine every
/// CSV emitter in the codebase shares (Table, the time-series writer, the
/// alerts export).
[[nodiscard]] std::string csv_field(const std::string& cell);

/// Split one CSV record (no trailing newline) into its fields, undoing
/// csv_field()'s quoting.  Embedded newlines inside quoted fields are not
/// supported (no emitter in this codebase produces them); a malformed
/// record (unterminated quote, garbage after a closing quote) throws
/// PreconditionError so downstream tools fail loudly on corrupt files.
[[nodiscard]] std::vector<std::string> parse_csv_record(
    std::string_view line);

/// Print a section heading used by the figure binaries, e.g.
/// "== Figure 7(a): moved load distribution, ts5k-large ==".
void print_heading(std::ostream& os, const std::string& title);

}  // namespace p2plb

#pragma once

// Plain-text tables for the benchmark harness. Every reproduced paper
// table/figure is printed through this so outputs share one format and can
// be diffed between runs.

#include <iosfwd>
#include <string>
#include <vector>

namespace usw {

/// Column-aligned text table with an optional title, mirroring the layout
/// of the paper's tables.
class TextTable {
 public:
  explicit TextTable(std::string title = "") : title_(std::move(title)) {}

  /// Sets the header row. Must be called before any add_row.
  void set_header(std::vector<std::string> header);

  /// Appends a data row; must match the header width.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with `precision` digits after the point.
  static std::string num(double v, int precision = 3);
  /// Formats a ratio as a percentage string like "57.6%".
  static std::string pct(double ratio, int precision = 1);

  std::size_t rows() const { return rows_.size(); }

  /// Renders the aligned table.
  void print(std::ostream& os) const;
  std::string to_string() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace usw

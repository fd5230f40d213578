#pragma once

// ASCII table / CSV rendering used by the benchmark harnesses to print the
// paper's tables and figure series.

#include <cstdint>
#include <string>
#include <vector>

namespace slim {

/// Column-aligned text table. Rows are vectors of pre-formatted cells.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Adds a horizontal separator line at the current position.
  void add_separator();

  /// Renders the table with column alignment.
  std::string to_string() const;

  /// Renders rows as CSV (separators omitted).
  std::string to_csv() const;

  /// Column headers, as passed to the constructor.
  const std::vector<std::string>& header() const { return header_; }

  /// Data rows in order, separator lines omitted (pre-formatted cells).
  /// Used by the bench reporter to serialize printed tables into JSON.
  std::vector<std::vector<std::string>> data_rows() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

/// Formats a double with `digits` decimals.
std::string fmt(double value, int digits = 2);
std::string fmt(std::int64_t value);

}  // namespace slim

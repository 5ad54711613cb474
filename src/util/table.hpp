// Plain-text table rendering used by the benchmark harnesses to print
// the paper's tables (Table 1..3) and figure data (Fig 3..5) in a
// readable fixed-width layout.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dot::util {

/// Column-aligned text table. Cells are strings; numeric helpers format
/// with a fixed precision so rows line up.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Renders with a header rule and column padding.
  std::string str() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const TextTable& table);

/// Formats a double with the given number of decimals (locale-free).
std::string fmt(double value, int decimals = 2);

/// Formats a ratio as a percentage string, e.g. 0.933 -> "93.3".
std::string pct(double ratio, int decimals = 1);

/// Formats an SI-scaled quantity, e.g. (3.2e-6, "s") -> "3.20 us".
std::string si(double value, const std::string& unit, int decimals = 2);

}  // namespace dot::util

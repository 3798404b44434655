// Aligned-text table output for the paper-experiment grids.
//
// Every experiment (sim/experiments.h, `ba_sweep --grid eK`) prints one or
// a few tables in the same format: a caption naming the paper claim, a
// header row, then data rows. Keeping formatting here means every
// experiment reads the same way.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace ba {

/// One cell: string, integer or double (printed with %.4g-style precision).
using Cell = std::variant<std::string, std::int64_t, double>;

class Table {
 public:
  explicit Table(std::string caption);

  Table& header(std::vector<std::string> cols);
  Table& row(std::vector<Cell> cells);

  /// Aligned plain-text rendering with the caption on top.
  void print(std::ostream& os) const;

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return header_.size(); }
  const std::vector<std::vector<Cell>>& rows() const { return rows_; }
  const std::string& caption() const { return caption_; }

 private:
  static std::string render(const Cell& c);
  std::string caption_;
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

/// Ordinary least-squares slope of y on x. Fed log(n) and log(cost), it is
/// the fitted exponent b in cost ≈ a·n^b — the one fit behind both the
/// experiment tables and the BENCH_protocol.json exponent. Requires at
/// least two distinct x values.
double least_squares_slope(const std::vector<double>& x,
                           const std::vector<double>& y);

}  // namespace ba

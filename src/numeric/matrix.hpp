// Dense real matrix used by the MNA formulation. Macro cells in the
// methodology are deliberately small (that is the point of the macro
// decomposition), so a dense solver wins on constant factors on small
// systems; past SolverOptions::sparse_threshold unknowns,
// spice::SolverContext switches to numeric/sparse.hpp.
#pragma once

#include <cstddef>
#include <vector>

namespace dot::numeric {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool square() const { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  void fill(double value);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace dot::numeric

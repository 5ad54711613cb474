#include "numeric/lu.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/error.hpp"

namespace dot::numeric {

DenseLu::DenseLu(Matrix a, double pivot_epsilon) : lu_(std::move(a)) {
  factor(pivot_epsilon);
}

bool DenseLu::factor(double pivot_epsilon) {
  if (lu_.rows() != lu_.cols())
    throw std::invalid_argument("DenseLu: matrix must be square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  singular_ = false;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest-magnitude entry in column k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag <= pivot_epsilon) {
      singular_ = true;
      return false;
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu_(k, c), lu_(pivot_row, c));
      std::swap(perm_[k], perm_[pivot_row]);
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) * inv_pivot;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c)
        lu_(r, c) -= factor * lu_(k, c);
    }
  }
  return true;
}

void DenseLu::solve_into(const std::vector<double>& b,
                         std::vector<double>& x) const {
  if (singular_) throw util::ConvergenceError("LU solve on singular matrix");
  const std::size_t n = lu_.rows();
  if (b.size() != n)
    throw std::invalid_argument("DenseLu::solve: size mismatch");
  x.resize(n);
  // Forward substitution on permuted b (L has implicit unit diagonal).
  for (std::size_t r = 0; r < n; ++r) {
    double acc = b[perm_[r]];
    for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
    x[r] = acc;
  }
  // Back substitution.
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
    x[ri] = acc / lu_(ri, ri);
  }
}

std::vector<double> DenseLu::solve(const std::vector<double>& b) const {
  std::vector<double> x;
  solve_into(b, x);
  return x;
}

}  // namespace dot::numeric

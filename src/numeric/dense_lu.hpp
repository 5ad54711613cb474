// Dense LU factorization with partial pivoting, templated over the
// scalar field so the real (DC/transient) and complex (AC) solvers
// share one pivoting implementation.
//
// The factorization is done IN PLACE in a matrix owned by this object:
// callers that solve the same-sized system repeatedly (the Newton loop)
// assemble straight into `matrix()` and call `factor()`, so the per-
// iteration matrix copy and allocation churn of the old one-shot
// LuFactorization constructor disappears.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace dot::numeric {

template <typename MatrixT, typename Scalar>
class DenseLuT {
 public:
  DenseLuT() = default;

  /// One-shot compatibility path: takes the matrix and factors it.
  explicit DenseLuT(MatrixT a, double pivot_epsilon = 1e-13)
      : lu_(std::move(a)) {
    factor(pivot_epsilon);
  }

  /// Assembly target for workspace reuse: fill this matrix (its storage
  /// persists between factorizations), then call factor().
  MatrixT& matrix() { return lu_; }
  const MatrixT& matrix() const { return lu_; }

  std::size_t size() const { return lu_.rows(); }
  bool singular() const { return singular_; }

  /// Estimated reciprocal pivot growth; tiny values signal an
  /// ill-conditioned system (useful for fault-sim diagnostics).
  double min_abs_pivot() const { return min_abs_pivot_; }

  /// Factors matrix() in place (P*A = L*U). Returns false (and marks
  /// the factorization singular) when a zero / sub-epsilon pivot is hit.
  bool factor(double pivot_epsilon = 1e-13) {
    if (lu_.rows() != lu_.cols())
      throw std::invalid_argument("DenseLu: matrix must be square");
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    singular_ = false;
    min_abs_pivot_ = n == 0 ? 0.0 : std::numeric_limits<double>::infinity();

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
        min_abs_pivot_ = 0.0;
        return false;
      }
      if (pivot_row != k) {
        for (std::size_t c = 0; c < n; ++c)
          std::swap(lu_(k, c), lu_(pivot_row, c));
        std::swap(perm_[k], perm_[pivot_row]);
      }
      min_abs_pivot_ = std::min(min_abs_pivot_, pivot_mag);
      const Scalar inv_pivot = Scalar(1.0) / lu_(k, k);
      for (std::size_t r = k + 1; r < n; ++r) {
        const Scalar factor = lu_(r, k) * inv_pivot;
        lu_(r, k) = factor;
        if (factor == Scalar(0.0)) continue;
        for (std::size_t c = k + 1; c < n; ++c)
          lu_(r, c) -= factor * lu_(k, c);
      }
    }
    return true;
  }

  /// Solves A x = b into `x` (resized as needed; reuse the same vector
  /// across calls to avoid allocation). Throws on singular systems.
  void solve_into(const std::vector<Scalar>& b, std::vector<Scalar>& x) const {
    if (singular_)
      throw util::ConvergenceError("LU solve on singular matrix");
    const std::size_t n = lu_.rows();
    if (b.size() != n)
      throw std::invalid_argument("DenseLu::solve: size mismatch");
    x.resize(n);
    // Forward substitution on permuted b (L has implicit unit diagonal).
    for (std::size_t r = 0; r < n; ++r) {
      Scalar acc = b[perm_[r]];
      for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
      x[r] = acc;
    }
    // Back substitution.
    for (std::size_t ri = n; ri-- > 0;) {
      Scalar acc = x[ri];
      for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
      x[ri] = acc / lu_(ri, ri);
    }
  }

  std::vector<Scalar> solve(const std::vector<Scalar>& b) const {
    std::vector<Scalar> x;
    solve_into(b, x);
    return x;
  }

 private:
  MatrixT lu_;
  std::vector<std::size_t> perm_;
  bool singular_ = false;
  double min_abs_pivot_ = 0.0;
};

}  // namespace dot::numeric

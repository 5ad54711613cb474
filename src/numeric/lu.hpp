// Dense LU factorization with partial pivoting. This is the dense linear
// solver behind small DC operating points and transient time steps;
// systems past the sparse crossover go through numeric/sparse.hpp.
//
// The factorization is done IN PLACE in a matrix owned by this object:
// callers that solve the same-sized system repeatedly (the Newton loop's
// solver context) fill `matrix()` and call `factor()`, so the Newton
// loop neither copies nor allocates a matrix per iteration.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/matrix.hpp"

namespace dot::numeric {

/// Factorization of a square matrix A as P*A = L*U.
class DenseLu {
 public:
  DenseLu() = default;

  /// One-shot path: takes the matrix and factors it. `singular()`
  /// reports whether a zero (or sub-epsilon) pivot was hit; solving a
  /// singular factorization throws util::ConvergenceError.
  explicit DenseLu(Matrix a, double pivot_epsilon = 1e-13);

  /// Assembly target for workspace reuse: fill this matrix (its storage
  /// persists between factorizations), then call factor().
  Matrix& matrix() { return lu_; }
  const Matrix& matrix() const { return lu_; }

  std::size_t size() const { return lu_.rows(); }
  bool singular() const { return singular_; }

  /// Factors matrix() in place (P*A = L*U). Returns false (and marks
  /// the factorization singular) when a zero / sub-epsilon pivot is hit.
  bool factor(double pivot_epsilon = 1e-13);

  /// Solves A x = b into `x` (resized as needed; reuse the same vector
  /// across calls to avoid allocation). Throws on singular systems.
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  std::vector<double> solve(const std::vector<double>& b) const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  bool singular_ = false;
};

}  // namespace dot::numeric

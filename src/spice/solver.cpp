#include "spice/solver.hpp"

#include <algorithm>
#include <chrono>

#include "spice/resilience.hpp"
#include "util/error.hpp"

namespace dot::spice {

namespace {
/// Bound on cached symbolic analyses per context. A fault solve sees
/// the golden pattern plus at most a couple of fault-induced ones;
/// anything beyond that is churn, evicted oldest-first (the seed entry
/// at the front is pinned -- it is the cross-thread shared one).
constexpr std::size_t kMaxSymbolicCache = 8;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

bool SolverContext::factor_sparse(std::size_t n) {
  const numeric::CsrPattern& pattern = assembler_.pattern();
  const std::vector<double>& values = assembler_.values();

  // The cache holds at most one entry per pattern, so the entry matched
  // for this frozen pattern stays the match until the assembler builds
  // a new pattern or the cache changes.
  if (!matched_ || matched_pattern_ != assembler_.shared_pattern()) {
    matched_.reset();
    for (const auto& cached : cache_) {
      if (cached->pattern == pattern) {
        matched_ = cached;
        break;
      }
    }
    if (!matched_) {
      const double t0 = phase_times_ ? now_seconds() : 0.0;
      auto symbolic = numeric::SparseSymbolic::analyze(pattern, values,
                                                       options_.pivot_epsilon);
      if (phase_times_)
        phase_times_->factor_symbolic_seconds += now_seconds() - t0;
      ++symbolic_analyses_;
      if (symbolic) cache_insert(symbolic);
      matched_ = std::move(symbolic);
    }
    matched_pattern_ = assembler_.shared_pattern();
  }
  if (matched_) {
    const double t0 = phase_times_ ? now_seconds() : 0.0;
    const bool ok = factors_.refactor(matched_, values, options_.pivot_epsilon);
    if (phase_times_)
      phase_times_->factor_numeric_seconds += now_seconds() - t0;
    if (ok) {
      sparse_active_ = true;
      return true;
    }
    // The cached pivot sequence collapsed on these values (the matrix
    // drifted too far from the analyzed one): analyze afresh.
    auto fresh = numeric::SparseSymbolic::analyze(pattern, values,
                                                  options_.pivot_epsilon);
    ++symbolic_analyses_;
    if (fresh && factors_.refactor(fresh, values, options_.pivot_epsilon)) {
      std::replace(cache_.begin(), cache_.end(), matched_, fresh);
      matched_ = std::move(fresh);
      sparse_active_ = true;
      return true;
    }
  }
  // Sparse analysis rejected the matrix (singular at pivot_epsilon, or
  // threshold pivoting could not stabilize it): let full partial
  // pivoting have the final say.
  return factor_dense(n);
}

bool SolverContext::factor_dense(std::size_t n) {
  // A CSR slot holds the adds of its entry in stream order; entries
  // outside the pattern received none.
  const numeric::CsrPattern& pattern = assembler_.pattern();
  const std::vector<double>& values = assembler_.values();
  numeric::Matrix& m = dense_.matrix();
  if (m.rows() != n || m.cols() != n) m = numeric::Matrix(n, n);
  m.fill(0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::int32_t idx = pattern.row_ptr[r]; idx < pattern.row_ptr[r + 1];
         ++idx)
      m(r, static_cast<std::size_t>(pattern.cols[idx])) = values[idx];
  }
  sparse_active_ = false;
  return dense_.factor(options_.pivot_epsilon);
}

bool SolverContext::factor(std::size_t n) {
  // Resilience hooks: per-class wall-clock deadline plus the test-only
  // fault-injection point (both no-ops outside a campaign EvalScope).
  EvalScope::check_deadline();
  injection_point();
  ++factorizations_;
  if (use_sparse(n)) return factor_sparse(n);
  const double t0 = phase_times_ ? now_seconds() : 0.0;
  const bool ok = factor_dense(n);
  if (phase_times_) phase_times_->factor_numeric_seconds += now_seconds() - t0;
  return ok;
}

void SolverContext::solve(const std::vector<double>& b,
                          std::vector<double>& x) {
  if (sparse_active_)
    factors_.solve_into(b, x);
  else
    dense_.solve_into(b, x);
}

void SolverContext::cache_insert(
    std::shared_ptr<const numeric::SparseSymbolic> symbolic) {
  cache_.push_back(std::move(symbolic));
  if (cache_.size() > kMaxSymbolicCache) cache_.erase(cache_.begin() + 1);
}

}  // namespace dot::spice

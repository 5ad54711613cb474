// Linear-solver selection and factorization reuse for the MNA engines.
//
// SolverContext owns the per-solve workspaces (CSR assembler, sparse
// factors and dense LU) and a small cache of sparse symbolic analyses
// keyed by matrix pattern. The intended lifecycle mirrors the per-macro
// campaign contexts from the parallel engine:
//
//   1. The golden netlist is solved once; its symbolic analysis is
//      exported via shared_symbolic() into a SolverSeed stored in the
//      (read-only, thread-shared) macro context.
//   2. Every fault / envelope-sample solve builds a cheap SolverContext
//      from the seed. Monte-Carlo samples and most fault classes keep
//      the golden matrix pattern, so they refactor against the cached
//      symbolic without ever re-running the analysis; bridge faults
//      that add entries analyze their own pattern once and reuse it
//      across all Newton iterations and continuation rungs of that
//      solve.
//
// Every system assembles into the same CSR workspace; system size alone
// picks the LU. Below SolverOptions::sparse_threshold factor() densifies
// the CSR system and runs the dense partial-pivoting LU (there an O(n^3)
// factor beats the sparse machinery's overhead); the same densified
// dense LU is the robustness fallback when sparse analysis rejects the
// matrix.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/lu.hpp"
#include "numeric/sparse.hpp"

namespace dot::spice {

struct SolverOptions {
  /// Dense/sparse crossover: systems with at least this many unknowns
  /// take the sparse LU, smaller ones the dense LU. The default 18 is
  /// pinned, not measured live: it is the crossover_n of one
  /// bench_solver sweep (BENCH_bench_solver.json), and later sweeps
  /// put the crossover lower (DESIGN.md §7). Dense and sparse LU differ
  /// in the last bits, so moving it re-pins SmallSystemPin.*,
  /// Campaign.PinnedVerdicts* and results/. The 39-unknown comparator
  /// bench is well above it. Tests force one LU with 0 (always sparse)
  /// or SIZE_MAX (always dense).
  std::size_t sparse_threshold = 18;
  double pivot_epsilon = 1e-13;
};

/// Immutable per-macro solver state, shared read-only across worker
/// threads: the options plus the golden netlist's symbolic analysis.
struct SolverSeed {
  SolverOptions options;
  std::shared_ptr<const numeric::SparseSymbolic> symbolic;
};

/// Wall-time breakdown of a Newton/transient run, attributing each
/// iteration to its phases: device (companion-model) evaluation, MNA
/// assembly (stamping minus device eval), numeric factorization, and
/// triangular solves. Collected only when a PhaseTimes sink is attached
/// to the SolverContext (TranOptions::collect_phase_times); otherwise
/// the hot loop stays clock-free.
struct PhaseTimes {
  double device_eval_seconds = 0.0;
  double assembly_seconds = 0.0;
  double factor_seconds = 0.0;
  double solve_seconds = 0.0;
  // Attribution of factor_seconds (filled inside SolverContext::factor;
  // the two sub-buckets sum to at most factor_seconds, the remainder
  // being dispatch overhead): from-scratch symbolic analysis and
  // numeric (re)factorization.
  double factor_symbolic_seconds = 0.0;
  double factor_numeric_seconds = 0.0;

  double total_seconds() const {
    return device_eval_seconds + assembly_seconds + factor_seconds +
           solve_seconds;
  }
  PhaseTimes& operator+=(const PhaseTimes& o) {
    device_eval_seconds += o.device_eval_seconds;
    assembly_seconds += o.assembly_seconds;
    factor_seconds += o.factor_seconds;
    solve_seconds += o.solve_seconds;
    factor_symbolic_seconds += o.factor_symbolic_seconds;
    factor_numeric_seconds += o.factor_numeric_seconds;
    return *this;
  }
};

/// Mutable per-solve workspace; cheap to construct from a SolverSeed
/// (copies two words and a shared_ptr). Not thread-safe; make one per
/// worker/solve like the Rng streams.
class SolverContext {
 public:
  SolverContext() = default;
  explicit SolverContext(const SolverOptions& options) : options_(options) {}
  explicit SolverContext(const SolverSeed& seed) : options_(seed.options) {
    if (seed.symbolic) cache_.push_back(seed.symbolic);
  }

  const SolverOptions& options() const { return options_; }

  /// Whether an n-unknown system takes the sparse LU.
  bool use_sparse(std::size_t n) const {
    return n >= options_.sparse_threshold;
  }

  /// Assembly workspace of every system (hand to assemble_mna, then
  /// factor(n)).
  numeric::SparseAssembler& assembler() { return assembler_; }

  /// Factors what was just assembled for an n-unknown system -- sparse
  /// (symbolic cache -> refactor -> re-analyze -> densified dense
  /// fallback) or, below the threshold, densified dense. Returns false
  /// when the matrix is numerically singular on every path.
  bool factor(std::size_t n);

  /// Solves with the factors from the last successful factor() call.
  void solve(const std::vector<double>& b, std::vector<double>& x);

  /// Attaches (or detaches, with nullptr) a per-phase wall-time sink;
  /// newton_solve and the stamping hooks accumulate into it. The sink
  /// must outlive the context or be detached first.
  void set_phase_times(PhaseTimes* sink) { phase_times_ = sink; }
  PhaseTimes* phase_times() const { return phase_times_; }

  /// Symbolic analysis of the golden (first-analyzed) pattern, for
  /// seeding campaign contexts. Null when only the dense path ran.
  std::shared_ptr<const numeric::SparseSymbolic> shared_symbolic() const {
    return cache_.empty() ? nullptr : cache_.front();
  }

  /// Number of from-scratch symbolic analyses this context has run
  /// (test/diagnostic hook: cache hits keep this flat).
  std::size_t symbolic_analyses() const { return symbolic_analyses_; }
  /// Number of numeric factorizations (factor() calls).
  std::size_t factorizations() const { return factorizations_; }
  /// Whether the last successful factor() used the sparse factors.
  bool sparse_active() const { return sparse_active_; }

 private:
  bool factor_sparse(std::size_t n);
  /// Densifies the assembled CSR system and factors it with the dense
  /// LU.
  bool factor_dense(std::size_t n);
  /// Appends to the symbolic cache, evicting the oldest non-seed entry
  /// past kMaxSymbolicCache.
  void cache_insert(std::shared_ptr<const numeric::SparseSymbolic> symbolic);

  SolverOptions options_;
  numeric::DenseLu dense_;
  numeric::SparseAssembler assembler_;
  numeric::SparseFactors factors_;
  /// Pattern-keyed symbolic cache, front = golden/seed entry; at most
  /// one entry per pattern.
  std::vector<std::shared_ptr<const numeric::SparseSymbolic>> cache_;
  /// Cache entry of the assembler's frozen pattern matched_pattern_
  /// (null: look it up again), so a Newton iteration does not compare
  /// patterns.
  std::shared_ptr<const numeric::SparseSymbolic> matched_;
  std::shared_ptr<const numeric::CsrPattern> matched_pattern_;
  std::size_t symbolic_analyses_ = 0;
  std::size_t factorizations_ = 0;
  bool sparse_active_ = false;
  PhaseTimes* phase_times_ = nullptr;
};

}  // namespace dot::spice

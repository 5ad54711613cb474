// Sparse linear-solver subsystem for the MNA engine.
//
// MNA matrices have a handful of entries per device stamp, so past a
// few dozen unknowns the dense O(n^3) LU in the Newton loop dominates
// every fault-simulation campaign. This module provides:
//
//  - SparseAssembler: triplet accumulation into CSR with *pattern
//    freezing* -- a repeated (row,col) stream reuses the frozen CSR
//    pattern, and a caller that knows the CSR slot of each of its
//    stamps (spice::StampProgram) re-assembles by zeroing the values
//    and scattering straight into the slots (no sort, no dense n*n
//    clear).
//  - minimum_degree_order: greedy fill-reducing ordering on the
//    symmetrized pattern.
//  - SparseSymbolic: one-time "analyze" pass (Gilbert-Peierls LU with
//    threshold partial pivoting on a representative numeric matrix)
//    that records the column ordering, the pivot sequence and the fill
//    pattern of L and U. Immutable and shareable across threads: the
//    per-macro campaign contexts cache it for the golden netlist.
//  - SparseFactors: fast numeric *refactorization* over a cached
//    SparseSymbolic -- fixed pattern, fixed pivots, pure flops. This is
//    the per-Newton-iteration hot path. A pivot that collapses below
//    epsilon (values drifted too far from the analyzed matrix) makes
//    refactor() fail so the caller can re-analyze or fall back to the
//    dense partial-pivoting solver.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dot::numeric {

/// Compressed-sparse-row structure (no values): row_ptr has n+1
/// entries; cols holds the column indices of each row in ascending
/// order with no duplicates.
struct CsrPattern {
  std::size_t n = 0;
  std::vector<std::int32_t> row_ptr;
  std::vector<std::int32_t> cols;

  std::size_t nnz() const { return cols.size(); }
  bool operator==(const CsrPattern&) const = default;
};

/// Pattern-freezing triplet assembler (see file comment). Usage:
///   begin(n); add(r, c, v)...; finish();
/// then pattern() / values() expose the CSR system. A second assembly
/// with the identical (r, c) stream reuses the frozen pattern and only
/// rewrites values (pattern_reused() reports which path ran).
///
/// Replay: after a finish(), slots()[k] is the CSR slot the k-th add()
/// landed in. A caller that recorded them re-assembles the same stream
/// with zero_values() and replay(), without the triplet round; it
/// holds shared_pattern() to tell whether the frozen pattern is still
/// the one its slots index.
class SparseAssembler {
 public:
  void begin(std::size_t n);
  void add(std::size_t r, std::size_t c, double v) {
    codes_.push_back(static_cast<std::uint64_t>(r) * n_ + c);
    vals_.push_back(v);
  }
  void finish();

  /// CSR value slot of every add() of the last finish(), in stream
  /// order.
  const std::vector<std::int32_t>& slots() const { return slot_; }
  /// Starts a replay round on the frozen pattern: every value is zero.
  void zero_values() { std::fill(values_.begin(), values_.end(), 0.0); }
  /// Replays `count` adds values_[slots[i]] += fields[srcs[i]] in
  /// stream order. Bit-identical to the add() calls they stand for when
  /// the slots are those adds' slots() and the fields hold the values
  /// they add.
  void replay(const std::int32_t* slots, const std::int32_t* srcs,
              std::size_t count, const double* fields) {
    for (std::size_t i = 0; i < count; ++i)
      values_[static_cast<std::size_t>(slots[i])] += fields[srcs[i]];
  }

  std::size_t size() const { return n_; }
  const CsrPattern& pattern() const { return *pattern_; }
  /// The frozen pattern. Every finish() that builds a pattern makes a
  /// new object, so a holder's pointer equals this one exactly while
  /// the pattern it saw is still frozen.
  const std::shared_ptr<const CsrPattern>& shared_pattern() const {
    return pattern_;
  }
  const std::vector<double>& values() const { return values_; }
  bool pattern_reused() const { return pattern_reused_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> codes_;         ///< r*n+c per add() this round.
  std::vector<double> vals_;                 ///< parallel to codes_.
  std::vector<std::uint64_t> frozen_codes_;  ///< add() stream of the pattern.
  std::vector<std::int32_t> slot_;           ///< add() index -> CSR slot.
  std::shared_ptr<const CsrPattern> pattern_ = std::make_shared<CsrPattern>();
  std::vector<double> values_;
  bool frozen_ = false;
  bool pattern_reused_ = false;
};

/// Greedy minimum-degree ordering of the symmetrized pattern (graph of
/// A + A^T). Returns the elimination order: position j is filled by
/// original row/column order[j]. Deterministic (ties break on index).
std::vector<std::int32_t> minimum_degree_order(const CsrPattern& pattern);

/// Result of the one-time analyze pass: column ordering (minimum
/// degree), row pivot sequence (threshold partial pivoting on the
/// representative matrix), fill pattern of L and U, and the scatter
/// maps used by refactorization. Immutable after analyze(); share it
/// across threads freely.
///
/// The raw index arrays are public for SparseFactors and the tests;
/// treat them as read-only.
class SparseSymbolic {
 public:
  /// Runs Gilbert-Peierls LU with threshold partial pivoting (diagonal
  /// preferred within `diag_preference` of the column maximum) on the
  /// given matrix and records the structural outcome. Returns nullptr
  /// when the matrix is numerically singular at `pivot_epsilon`.
  static std::shared_ptr<const SparseSymbolic> analyze(
      const CsrPattern& pattern, const std::vector<double>& values,
      double pivot_epsilon = 1e-13, double diag_preference = 0.1);

  std::size_t size() const { return pattern.n; }
  std::size_t l_nnz() const { return l_rows.size(); }
  std::size_t u_nnz() const { return u_rows.size() + pattern.n; }

  CsrPattern pattern;                ///< The analyzed matrix structure.
  std::vector<std::int32_t> qperm;   ///< factor column j = A column qperm[j].
  std::vector<std::int32_t> pinv;    ///< original row -> pivot position.
  std::vector<std::int32_t> pivrow;  ///< pivot position -> original row.
  /// CSC view of `pattern` plus the map back into CSR value slots.
  std::vector<std::int32_t> csc_ptr, csc_rows, csc_csr;
  /// L columns: rows strictly below the pivot (original indices), unit
  /// diagonal implicit.
  std::vector<std::int32_t> l_ptr, l_rows;
  /// U columns excluding the diagonal: original row and pivot position,
  /// in the topological order of the column's reach (refactor() runs
  /// its elimination in this order).
  std::vector<std::int32_t> u_ptr, u_rows, u_pos;
};

/// Numeric LU factors over a cached SparseSymbolic. refactor() is the
/// hot path: no reach, no pivot search, just sparse flops in the
/// recorded order.
class SparseFactors {
 public:
  /// Factors the CSR values (matching symbolic->pattern) with the
  /// recorded pivot sequence. Returns false -- and invalidates the
  /// factors -- when a pivot magnitude drops to `pivot_epsilon`.
  bool refactor(const std::shared_ptr<const SparseSymbolic>& symbolic,
                const std::vector<double>& csr_values,
                double pivot_epsilon = 1e-13);

  const std::shared_ptr<const SparseSymbolic>& symbolic() const {
    return symbolic_;
  }

  /// Solves A x = b (original row/column space). Throws
  /// util::ConvergenceError when no valid factorization is held.
  void solve_into(const std::vector<double>& b, std::vector<double>& x);

 private:
  std::shared_ptr<const SparseSymbolic> symbolic_;
  std::vector<double> l_vals_, u_vals_, udiag_;
  std::vector<double> x_;  ///< dense scratch (factor + solve).
  std::vector<double> z_;  ///< pivot-space scratch (solve).
};

}  // namespace dot::numeric

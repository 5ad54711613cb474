#include "numeric/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "util/error.hpp"

namespace dot::numeric {

// ---------------------------------------------------------------------------
// SparseAssembler
// ---------------------------------------------------------------------------

void SparseAssembler::begin(std::size_t n) {
  if (n != n_) {
    frozen_ = false;
    n_ = n;
  }
  codes_.clear();
  vals_.clear();
  pattern_reused_ = false;
}

void SparseAssembler::finish() {
  const std::size_t m = codes_.size();
  if (frozen_ && codes_ == frozen_codes_) {
    pattern_reused_ = true;
  } else {
    // Sort the add() stream by code (= r*n + c, so row-major order) to
    // build the CSR pattern and the add-index -> slot map.
    std::vector<std::int32_t> order(m);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [this](std::int32_t a, std::int32_t b) {
                return codes_[a] < codes_[b];
              });
    auto pattern = std::make_shared<CsrPattern>();
    pattern->n = n_;
    pattern->row_ptr.assign(n_ + 1, 0);
    slot_.assign(m, -1);
    std::uint64_t prev_code = 0;
    std::int32_t slot = -1;
    for (std::int32_t i : order) {
      const std::uint64_t code = codes_[i];
      if (slot < 0 || code != prev_code) {
        prev_code = code;
        ++slot;
        pattern->cols.push_back(static_cast<std::int32_t>(code % n_));
        ++pattern->row_ptr[code / n_ + 1];
      }
      slot_[i] = slot;
    }
    for (std::size_t r = 0; r < n_; ++r)
      pattern->row_ptr[r + 1] += pattern->row_ptr[r];
    pattern_ = std::move(pattern);
    frozen_codes_ = codes_;
    frozen_ = true;
  }
  values_.assign(pattern_->cols.size(), 0.0);
  for (std::size_t i = 0; i < m; ++i) values_[slot_[i]] += vals_[i];
}

// ---------------------------------------------------------------------------
// Minimum-degree ordering
// ---------------------------------------------------------------------------

std::vector<std::int32_t> minimum_degree_order(const CsrPattern& pattern) {
  const std::int32_t n = static_cast<std::int32_t>(pattern.n);
  std::vector<std::vector<std::int32_t>> adj(n);
  for (std::int32_t r = 0; r < n; ++r) {
    for (std::int32_t idx = pattern.row_ptr[r]; idx < pattern.row_ptr[r + 1];
         ++idx) {
      const std::int32_t c = pattern.cols[idx];
      if (c == r) continue;
      adj[r].push_back(c);
      adj[c].push_back(r);
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  std::vector<char> alive(n, 1);
  std::vector<std::int32_t> order;
  order.reserve(n);
  std::vector<std::int32_t> merged;
  for (std::int32_t step = 0; step < n; ++step) {
    std::int32_t best = -1;
    std::size_t best_degree = std::numeric_limits<std::size_t>::max();
    for (std::int32_t v = 0; v < n; ++v) {
      if (alive[v] && adj[v].size() < best_degree) {
        best = v;
        best_degree = adj[v].size();
      }
    }
    order.push_back(best);
    alive[best] = 0;
    const std::vector<std::int32_t> clique = std::move(adj[best]);
    adj[best] = {};
    // Eliminating `best` joins its neighbors into a clique:
    // adj[u] := (adj[u] | clique) \ {u, best} for each neighbor u.
    for (std::int32_t u : clique) {
      merged.clear();
      const auto& a = adj[u];
      std::size_t ia = 0, ic = 0;
      while (ia < a.size() || ic < clique.size()) {
        std::int32_t v;
        if (ic == clique.size() || (ia < a.size() && a[ia] <= clique[ic])) {
          v = a[ia];
          if (ic < clique.size() && clique[ic] == v) ++ic;
          ++ia;
        } else {
          v = clique[ic++];
        }
        if (v != u && v != best) merged.push_back(v);
      }
      adj[u] = merged;
    }
  }
  return order;
}

// ---------------------------------------------------------------------------
// SparseSymbolic::analyze -- Gilbert-Peierls left-looking LU with
// threshold partial pivoting, recording structure and pivots.
// ---------------------------------------------------------------------------

std::shared_ptr<const SparseSymbolic> SparseSymbolic::analyze(
    const CsrPattern& pattern, const std::vector<double>& values,
    double pivot_epsilon, double diag_preference) {
  const std::int32_t n = static_cast<std::int32_t>(pattern.n);
  if (values.size() != pattern.nnz())
    throw std::invalid_argument("SparseSymbolic::analyze: values/pattern size");

  auto sym = std::make_shared<SparseSymbolic>();
  sym->pattern = pattern;
  sym->qperm = minimum_degree_order(pattern);
  sym->pinv.assign(n, -1);
  sym->pivrow.assign(n, -1);

  // CSC view of the pattern with the map back into CSR value slots.
  // Scanning CSR rows in order leaves every CSC column sorted by row.
  sym->csc_ptr.assign(n + 1, 0);
  for (std::int32_t c : pattern.cols) ++sym->csc_ptr[c + 1];
  for (std::int32_t c = 0; c < n; ++c) sym->csc_ptr[c + 1] += sym->csc_ptr[c];
  sym->csc_rows.resize(pattern.nnz());
  sym->csc_csr.resize(pattern.nnz());
  {
    std::vector<std::int32_t> next(sym->csc_ptr.begin(),
                                   sym->csc_ptr.end() - 1);
    for (std::int32_t r = 0; r < n; ++r) {
      for (std::int32_t idx = pattern.row_ptr[r]; idx < pattern.row_ptr[r + 1];
           ++idx) {
        const std::int32_t c = pattern.cols[idx];
        sym->csc_rows[next[c]] = r;
        sym->csc_csr[next[c]] = idx;
        ++next[c];
      }
    }
  }

  sym->l_ptr.assign(1, 0);
  sym->u_ptr.assign(1, 0);

  std::vector<double> x(n, 0.0);
  std::vector<double> l_vals;  // numeric L, aligned with sym->l_rows
  std::vector<std::int32_t> mark(n, -1);
  std::vector<std::int32_t> post, stack, child;

  for (std::int32_t j = 0; j < n; ++j) {
    const std::int32_t col = sym->qperm[j];
    post.clear();

    // Reach of A(:,col) through the computed L columns; post-order DFS,
    // reversed below, gives the topological elimination order.
    for (std::int32_t idx = sym->csc_ptr[col]; idx < sym->csc_ptr[col + 1];
         ++idx) {
      const std::int32_t r0 = sym->csc_rows[idx];
      if (mark[r0] == j) continue;
      mark[r0] = j;
      stack.assign(1, r0);
      child.assign(1, sym->pinv[r0] >= 0 ? sym->l_ptr[sym->pinv[r0]] : 0);
      while (!stack.empty()) {
        const std::int32_t node = stack.back();
        const std::int32_t k = sym->pinv[node];
        bool descended = false;
        if (k >= 0) {
          std::int32_t ci = child.back();
          const std::int32_t end = sym->l_ptr[k + 1];
          while (ci < end) {
            const std::int32_t rr = sym->l_rows[ci++];
            if (mark[rr] != j) {
              mark[rr] = j;
              child.back() = ci;
              stack.push_back(rr);
              child.push_back(sym->pinv[rr] >= 0 ? sym->l_ptr[sym->pinv[rr]]
                                                 : 0);
              descended = true;
              break;
            }
          }
          if (!descended) child.back() = ci;
        }
        if (!descended) {
          post.push_back(node);
          stack.pop_back();
          child.pop_back();
        }
      }
    }

    // Numeric column: scatter A(:,col), eliminate in topological order.
    for (std::int32_t r : post) x[r] = 0.0;
    for (std::int32_t idx = sym->csc_ptr[col]; idx < sym->csc_ptr[col + 1];
         ++idx)
      x[sym->csc_rows[idx]] = values[sym->csc_csr[idx]];
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      const std::int32_t r = *it;
      const std::int32_t k = sym->pinv[r];
      if (k < 0) continue;
      const double xr = x[r];
      if (xr == 0.0) continue;
      for (std::int32_t li = sym->l_ptr[k]; li < sym->l_ptr[k + 1]; ++li)
        x[sym->l_rows[li]] -= l_vals[li] * xr;
    }

    // Threshold partial pivoting: largest candidate wins, but the
    // diagonal is kept when it is within diag_preference of the max
    // (stability without gratuitous permutation churn). Candidate scan
    // runs in topological order so ties break deterministically.
    double max_mag = 0.0;
    std::int32_t piv = -1;
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      const std::int32_t r = *it;
      if (sym->pinv[r] >= 0) continue;
      const double mag = std::abs(x[r]);
      if (mag > max_mag) {
        max_mag = mag;
        piv = r;
      }
    }
    if (piv < 0 || max_mag <= pivot_epsilon) return nullptr;
    if (mark[col] == j && sym->pinv[col] < 0 &&
        std::abs(x[col]) >= diag_preference * max_mag)
      piv = col;
    sym->pinv[piv] = j;
    sym->pivrow[j] = piv;
    const double inv_piv = 1.0 / x[piv];

    // Record the column structure (topological order for determinism).
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      const std::int32_t r = *it;
      if (r == piv) continue;
      const std::int32_t k = sym->pinv[r];
      if (k >= 0 && k < j) {
        sym->u_rows.push_back(r);
        sym->u_pos.push_back(k);
      } else {
        sym->l_rows.push_back(r);
        l_vals.push_back(x[r] * inv_piv);
      }
    }
    sym->l_ptr.push_back(static_cast<std::int32_t>(sym->l_rows.size()));
    sym->u_ptr.push_back(static_cast<std::int32_t>(sym->u_rows.size()));
  }
  return sym;
}

// ---------------------------------------------------------------------------
// SparseFactors
// ---------------------------------------------------------------------------

bool SparseFactors::refactor(
    const std::shared_ptr<const SparseSymbolic>& symbolic,
    const std::vector<double>& csr_values, double pivot_epsilon) {
  const SparseSymbolic& s = *symbolic;
  const std::int32_t n = static_cast<std::int32_t>(s.pattern.n);
  if (csr_values.size() != s.pattern.nnz())
    throw std::invalid_argument("SparseFactors::refactor: values size");

  l_vals_.resize(s.l_rows.size());
  u_vals_.resize(s.u_rows.size());
  udiag_.resize(n);
  x_.assign(n, 0.0);
  z_.resize(n);

  // Column j's nonzeros are its U entries (pivot positions < j), the
  // pivot and its L entries, all inside the column's reach. The U
  // entries are stored in topological order, so they drive the
  // elimination directly: by the time an entry is read, every update
  // that targets it has landed, and the value read is final. Each
  // touched entry is cleared as it is consumed, leaving x_ zero for the
  // next column.
  for (std::int32_t j = 0; j < n; ++j) {
    const std::int32_t col = s.qperm[j];
    for (std::int32_t idx = s.csc_ptr[col]; idx < s.csc_ptr[col + 1]; ++idx)
      x_[s.csc_rows[idx]] = csr_values[s.csc_csr[idx]];
    for (std::int32_t ui = s.u_ptr[j]; ui < s.u_ptr[j + 1]; ++ui) {
      const std::int32_t r = s.u_rows[ui];
      const double xr = x_[r];
      u_vals_[ui] = xr;
      x_[r] = 0.0;
      if (xr == 0.0) continue;
      const std::int32_t k = s.u_pos[ui];
      for (std::int32_t li = s.l_ptr[k]; li < s.l_ptr[k + 1]; ++li)
        x_[s.l_rows[li]] -= l_vals_[li] * xr;
    }
    const double piv = x_[s.pivrow[j]];
    const double mag = std::abs(piv);
    if (mag <= pivot_epsilon) {
      symbolic_.reset();
      return false;
    }
    udiag_[j] = piv;
    x_[s.pivrow[j]] = 0.0;
    const double inv_piv = 1.0 / piv;
    for (std::int32_t li = s.l_ptr[j]; li < s.l_ptr[j + 1]; ++li) {
      const std::int32_t r = s.l_rows[li];
      l_vals_[li] = x_[r] * inv_piv;
      x_[r] = 0.0;
    }
  }
  if (symbolic_ != symbolic) symbolic_ = symbolic;
  return true;
}

void SparseFactors::solve_into(const std::vector<double>& b,
                                        std::vector<double>& x) {
  if (!symbolic_)
    throw util::ConvergenceError(
        "SparseFactors::solve_into: no valid factorization");
  const SparseSymbolic& s = *symbolic_;
  const std::int32_t n = static_cast<std::int32_t>(s.pattern.n);
  if (b.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("SparseFactors::solve_into: rhs size");

  x.assign(b.begin(), b.end());
  // Forward substitution L z = P b, running in original-row space.
  for (std::int32_t j = 0; j < n; ++j) {
    const double xj = x[s.pivrow[j]];
    if (xj == 0.0) continue;
    for (std::int32_t li = s.l_ptr[j]; li < s.l_ptr[j + 1]; ++li)
      x[s.l_rows[li]] -= l_vals_[li] * xj;
  }
  // Back substitution U y = z in pivot space; U's off-diagonals are
  // stored column-wise with their pivot positions.
  for (std::int32_t j = n - 1; j >= 0; --j) {
    const double zj = x[s.pivrow[j]] / udiag_[j];
    z_[j] = zj;
    if (zj == 0.0) continue;
    for (std::int32_t ui = s.u_ptr[j]; ui < s.u_ptr[j + 1]; ++ui)
      x[s.pivrow[s.u_pos[ui]]] -= u_vals_[ui] * zj;
  }
  // Undo the column permutation: factor column j is A column qperm[j].
  for (std::int32_t j = 0; j < n; ++j) x[s.qperm[j]] = z_[j];
}

}  // namespace dot::numeric

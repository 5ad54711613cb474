// Sparse MNA solver: CSR assembly, fill-reducing ordering, the
// symbolic/numeric factorization split, and the SolverContext cache
// that shares one symbolic analysis across Newton iterations, envelope
// samples, and layout-preserving fault classes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "spice/dc.hpp"
#include "spice/devices.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "spice/solver.hpp"
#include "util/rng.hpp"

namespace dot {
namespace {

using numeric::CsrPattern;
using numeric::SparseAssembler;
using numeric::SparseFactors;
using numeric::SparseSymbolic;

// ------------------------------------------------------- CSR assembly

TEST(SparseAssembler, DeduplicatesAndOrdersEntries) {
  SparseAssembler a;
  a.begin(3);
  a.add(0, 0, 1.0);
  a.add(2, 1, 5.0);
  a.add(0, 2, 3.0);
  a.add(0, 0, 2.0);  // duplicate coordinate: summed, single slot
  a.add(1, 1, 4.0);
  a.finish();

  const CsrPattern& p = a.pattern();
  ASSERT_EQ(p.n, 3u);
  EXPECT_EQ(p.nnz(), 4u);
  const std::vector<std::int32_t> want_ptr = {0, 2, 3, 4};
  const std::vector<std::int32_t> want_cols = {0, 2, 1, 1};
  EXPECT_EQ(p.row_ptr, want_ptr);
  EXPECT_EQ(p.cols, want_cols);
  const std::vector<double> want_vals = {3.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(a.values(), want_vals);
}

TEST(SparseAssembler, ReusesFrozenPatternOnIdenticalStampStream) {
  SparseAssembler a;
  for (int pass = 0; pass < 3; ++pass) {
    a.begin(2);
    a.add(0, 0, 1.0 + pass);
    a.add(1, 1, 2.0);
    a.add(0, 1, -1.0);
    a.finish();
    EXPECT_EQ(a.pattern_reused(), pass > 0) << "pass " << pass;
    EXPECT_DOUBLE_EQ(a.values()[0], 1.0 + pass);
  }
  // A different stamp stream (extra entry) rebuilds the pattern.
  a.begin(2);
  a.add(0, 0, 1.0);
  a.add(1, 1, 2.0);
  a.add(0, 1, -1.0);
  a.add(1, 0, -1.0);
  a.finish();
  EXPECT_FALSE(a.pattern_reused());
  EXPECT_EQ(a.pattern().nnz(), 4u);
}

// ------------------------------------------------- fill-reducing order

TEST(MinimumDegree, ProducesAValidPermutation) {
  SparseAssembler a;
  util::Rng rng(11);
  const std::size_t n = 40;
  a.begin(n);
  for (std::size_t i = 0; i < n; ++i) a.add(i, i, 1.0);
  for (int e = 0; e < 120; ++e) {
    const auto r = rng.below(n);
    const auto c = rng.below(n);
    a.add(r, c, 0.5);
  }
  a.finish();
  const auto order = numeric::minimum_degree_order(a.pattern());
  ASSERT_EQ(order.size(), n);
  std::vector<bool> seen(n, false);
  for (const auto q : order) {
    ASSERT_GE(q, 0);
    ASSERT_LT(static_cast<std::size_t>(q), n);
    EXPECT_FALSE(seen[static_cast<std::size_t>(q)]);
    seen[static_cast<std::size_t>(q)] = true;
  }
}

TEST(MinimumDegree, TridiagonalFactorsWithoutFill) {
  SparseAssembler a;
  const std::size_t n = 50;
  a.begin(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0);
    if (i + 1 < n) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
  }
  a.finish();
  const auto sym = SparseSymbolic::analyze(a.pattern(), a.values());
  ASSERT_NE(sym, nullptr);
  // A tridiagonal matrix under minimum-degree ordering (eliminate the
  // chain ends first) picks up no fill: L and U keep one off-diagonal
  // entry per eliminated column (u_nnz additionally counts the n
  // diagonal pivots).
  EXPECT_LE(sym->l_nnz(), n - 1);
  EXPECT_LE(sym->u_nnz() - n, n - 1);
}

// ---------------------------------------- factorization vs dense LU

/// Builds a random diagonally-dominant sparse system in both CSR and
/// dense form.
void random_system(util::Rng& rng, std::size_t n, SparseAssembler& a,
                   numeric::Matrix& dense) {
  dense = numeric::Matrix(n, n);
  a.begin(n);
  std::vector<double> diag(n, 1e-3);
  for (int e = 0; e < static_cast<int>(4 * n); ++e) {
    const auto r = rng.below(n);
    const auto c = rng.below(n);
    if (r == c) continue;
    const double v = rng.uniform(-1.0, 1.0);
    a.add(r, c, v);
    dense(r, c) += v;
    diag[r] += std::fabs(v) + 0.1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, diag[i]);
    dense(i, i) += diag[i];
  }
  a.finish();
}

TEST(SparseFactorization, MatchesDenseLuOnRandomSystems) {
  util::Rng rng(2024);
  for (const std::size_t n : {5u, 17u, 40u, 93u}) {
    SparseAssembler a;
    numeric::Matrix dense;
    random_system(rng, n, a, dense);

    const auto sym = SparseSymbolic::analyze(a.pattern(), a.values());
    ASSERT_NE(sym, nullptr) << "n = " << n;
    SparseFactors factors;
    ASSERT_TRUE(factors.refactor(sym, a.values())) << "n = " << n;

    std::vector<double> b(n), x_sparse, x_dense;
    for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-2.0, 2.0);
    factors.solve_into(b, x_sparse);
    numeric::DenseLu lu(dense);
    lu.solve_into(b, x_dense);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-10) << "n = " << n;
  }
}

TEST(SparseFactorization, RefactorTracksChangedValues) {
  util::Rng rng(7);
  const std::size_t n = 30;
  SparseAssembler a;
  numeric::Matrix dense;
  random_system(rng, n, a, dense);
  const auto sym = SparseSymbolic::analyze(a.pattern(), a.values());
  ASSERT_NE(sym, nullptr);
  SparseFactors factors;
  ASSERT_TRUE(factors.refactor(sym, a.values()));

  // Same pattern, new values (a faulted conductance): the fixed-pivot
  // numeric pass must track them exactly.
  std::vector<double> values = a.values();
  numeric::Matrix dense2 = dense;
  const std::size_t slot = 0;
  const std::size_t row = 0;
  const auto col = static_cast<std::size_t>(a.pattern().cols[slot]);
  values[slot] += 0.75;
  dense2(row, col) += 0.75;
  ASSERT_TRUE(factors.refactor(sym, values));

  std::vector<double> b(n, 1.0), x_sparse, x_dense;
  factors.solve_into(b, x_sparse);
  numeric::DenseLu lu(dense2);
  lu.solve_into(b, x_dense);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-10);
}

TEST(SparseFactorization, SingularMatrixRejectedAtAnalysis) {
  SparseAssembler a;
  a.begin(3);
  a.add(0, 0, 1.0);
  a.add(1, 1, 1.0);
  // Column/row 2 is structurally present but numerically zero.
  a.add(2, 2, 0.0);
  a.finish();
  EXPECT_EQ(SparseSymbolic::analyze(a.pattern(), a.values()), nullptr);
}

TEST(SparseFactorization, ZeroDiagonalHandledByPivoting) {
  // MNA voltage-source rows: [[0, 1], [1, g]] has a structurally zero
  // diagonal and needs row pivoting in the analysis phase.
  SparseAssembler a;
  a.begin(2);
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 1e-3);
  a.finish();
  const auto sym = SparseSymbolic::analyze(a.pattern(), a.values());
  ASSERT_NE(sym, nullptr);
  SparseFactors factors;
  ASSERT_TRUE(factors.refactor(sym, a.values()));
  std::vector<double> b = {5.0, 2.0}, x;
  factors.solve_into(b, x);
  // x1 = 5 (from row 0); x0 = 2 - 1e-3 * 5.
  EXPECT_NEAR(x[1], 5.0, 1e-12);
  EXPECT_NEAR(x[0], 2.0 - 5e-3, 1e-12);
}

// ---------------------------------------------- SolverContext caching

spice::Netlist mos_array_netlist(int cells) {
  spice::Netlist n;
  const spice::MosModel model;
  n.add_vsource("VDD", "vdd", "0", spice::SourceSpec::dc(3.3));
  n.add_vsource("VREF", "tap0", "0", spice::SourceSpec::dc(1.6));
  for (int i = 0; i < cells; ++i) {
    const std::string tap = "tap" + std::to_string(i);
    const std::string out = "out" + std::to_string(i);
    n.add_resistor("RT" + std::to_string(i), tap,
                   "tap" + std::to_string(i + 1), 200.0);
    n.add_resistor("RL" + std::to_string(i), "vdd", out, 8000.0);
    n.add_mosfet("M" + std::to_string(i), spice::MosType::kNmos, out, tap,
                 "0", "0", 4e-6, 1e-6, model);
  }
  n.add_resistor("RTEND", "tap" + std::to_string(cells), "0", 100000.0);
  return n;
}

TEST(SolverContext, SymbolicAnalysisSharedAcrossSolves) {
  const spice::Netlist n = mos_array_netlist(20);
  const spice::MnaMap map(n);
  spice::SolverOptions opts;
  opts.sparse_threshold = 0;  // always sparse
  spice::SolverContext ctx(opts);

  const auto golden = spice::dc_operating_point(n, map, {}, nullptr, &ctx);
  ASSERT_TRUE(golden.converged);
  EXPECT_TRUE(ctx.sparse_active());
  const std::size_t analyses_after_golden = ctx.symbolic_analyses();
  EXPECT_GE(analyses_after_golden, 1u);

  // Further solves of the same layout -- warm-started faulty variants
  // with value-only changes -- reuse the cached symbolic factorization.
  for (int trial = 0; trial < 4; ++trial) {
    spice::Netlist faulty = n;
    for (auto& device : faulty.devices())
      if (auto* r = std::get_if<spice::Resistor>(&device))
        if (r->name == "RL" + std::to_string(trial)) r->ohms = 50.0;
    const auto result =
        spice::dc_operating_point(faulty, map, {}, &golden.x, &ctx);
    ASSERT_TRUE(result.converged);
  }
  EXPECT_EQ(ctx.symbolic_analyses(), analyses_after_golden);

  // A bridge fault adds matrix entries (new pattern): one new analysis.
  spice::Netlist bridged = n;
  bridged.add_resistor("RBRIDGE", "out3", "out17", 10.0);
  const auto result =
      spice::dc_operating_point(bridged, map, {}, &golden.x, &ctx);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(ctx.symbolic_analyses(), analyses_after_golden);
}

TEST(SolverContext, SeededContextSkipsAnalysis) {
  const spice::Netlist n = mos_array_netlist(12);
  const spice::MnaMap map(n);
  spice::SolverOptions opts;
  opts.sparse_threshold = 0;  // always sparse
  spice::SolverContext golden_ctx(opts);
  const auto golden =
      spice::dc_operating_point(n, map, {}, nullptr, &golden_ctx);
  ASSERT_TRUE(golden.converged);
  ASSERT_NE(golden_ctx.shared_symbolic(), nullptr);

  // A worker seeded with the golden symbolic factorization (the
  // campaign's per-macro context) never re-analyzes this layout.
  spice::SolverSeed seed;
  seed.options = opts;
  seed.symbolic = golden_ctx.shared_symbolic();
  spice::SolverContext worker(seed);
  const auto result = spice::dc_operating_point(n, map, {}, &golden.x, &worker);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(worker.symbolic_analyses(), 0u);
}

TEST(SolverContext, SparseMatchesDenseOnMosNetlist) {
  const spice::Netlist n = mos_array_netlist(25);
  const spice::MnaMap map(n);
  spice::SolverOptions dense_opts;
  dense_opts.sparse_threshold = SIZE_MAX;  // always dense
  spice::SolverOptions sparse_opts;
  sparse_opts.sparse_threshold = 0;
  spice::SolverContext dense_ctx(dense_opts);
  spice::SolverContext sparse_ctx(sparse_opts);

  const auto dense = spice::dc_operating_point(n, map, {}, nullptr, &dense_ctx);
  const auto sparse =
      spice::dc_operating_point(n, map, {}, nullptr, &sparse_ctx);
  ASSERT_TRUE(dense.converged);
  ASSERT_TRUE(sparse.converged);
  ASSERT_EQ(dense.x.size(), sparse.x.size());
  for (std::size_t i = 0; i < dense.x.size(); ++i)
    EXPECT_NEAR(dense.x[i], sparse.x[i], 1e-8);
}

TEST(SolverContext, LargeNetlistConvergesSparse) {
  // >= 100 unknowns: 60 cells -> ~120 nodes plus two branch currents.
  const spice::Netlist n = mos_array_netlist(60);
  const spice::MnaMap map(n);
  ASSERT_GE(map.size(), 100u);
  spice::SolverOptions opts;
  opts.sparse_threshold = 0;  // always sparse
  spice::SolverContext ctx(opts);
  const auto result = spice::dc_operating_point(n, map, {}, nullptr, &ctx);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(ctx.sparse_active());
  // Sanity: the supply rail solves to its source value.
  EXPECT_NEAR(map.voltage(result.x, *n.find_node("vdd")), 3.3, 1e-6);
}

}  // namespace
}  // namespace dot

// Transient-kernel building blocks: the SoA level-1 MOSFET kernel, the
// multi-RHS triangular solve, the trusted-stream assembler fast path
// and the precompiled MOSFET stamp plan. Every case here asserts *bit*
// identity against the scalar code path it replaces -- the verdict
// equality of the scalar and batched campaign paths rests on these.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <variant>
#include <vector>

#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "numeric/sparse.hpp"
#include "spice/devices.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"

namespace dot {
namespace {

// Deterministic value wiggle (no RNG: failures must reproduce).
double wiggle(std::size_t i, std::size_t round) {
  return 0.25 * std::sin(static_cast<double>(3 * i + 7 * round + 1));
}

// ---------------------------------------------------------------------
// SoA device kernel vs scalar eval_mos.

TEST(DeviceBatch, LanesBitIdenticalToScalarEval) {
  spice::DeviceBatch batch;
  std::vector<spice::MosModel> models;
  std::vector<double> wols;
  // Sweep lanes across regions: cutoff, subthreshold, triode,
  // saturation, body-biased, and drain/source-swapped (vds < 0).
  for (std::size_t i = 0; i < 64; ++i) {
    spice::MosModel m;
    m.vt0 = 0.5 + 0.01 * static_cast<double>(i % 7);
    m.gamma = 0.3 + 0.05 * static_cast<double>(i % 3);
    m.lambda = 0.02 + 0.01 * static_cast<double>(i % 5);
    const double wol = 1.0 + static_cast<double>(i % 9);
    models.push_back(m);
    wols.push_back(wol);
    batch.push_device(m, wol);
    batch.vgs[i] = -0.5 + 0.08 * static_cast<double>(i);
    batch.vds[i] = -1.0 + 0.11 * static_cast<double>(i);
    batch.vbs[i] = -0.4 + 0.02 * static_cast<double>(i % 11);
  }
  eval_mos_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto op = spice::eval_mos(models[i], wols[i], batch.vgs[i],
                                    batch.vds[i], batch.vbs[i]);
    EXPECT_EQ(batch.ids[i], op.ids) << "lane " << i;
    EXPECT_EQ(batch.gm[i], op.gm) << "lane " << i;
    EXPECT_EQ(batch.gds[i], op.gds) << "lane " << i;
    EXPECT_EQ(batch.gmb[i], op.gmb) << "lane " << i;
  }
}

// ---------------------------------------------------------------------
// Multi-RHS solve vs per-RHS solve_into.

TEST(SolveMulti, ColumnsBitIdenticalToSolveInto) {
  // Small well-conditioned system with off-diagonal coupling.
  const std::size_t n = 12;
  numeric::SparseAssembler a;
  a.begin(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0 + 0.1 * static_cast<double>(i));
    if (i + 1 < n) {
      a.add(i, i + 1, -1.0 - 0.01 * static_cast<double>(i));
      a.add(i + 1, i, -1.2);
    }
  }
  a.finish();
  const auto symbolic = numeric::SparseSymbolic::analyze(a.pattern(),
                                                         a.values());
  ASSERT_NE(symbolic, nullptr);
  numeric::SparseFactors multi;
  numeric::SparseFactors single;
  ASSERT_TRUE(multi.refactor(symbolic, a.values()));
  ASSERT_TRUE(single.refactor(symbolic, a.values()));

  std::vector<std::vector<double>> rhs(5, std::vector<double>(n));
  std::vector<const std::vector<double>*> rhs_ptrs;
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    for (std::size_t i = 0; i < n; ++i) rhs[k][i] = wiggle(i, k) + 1.0;
    rhs_ptrs.push_back(&rhs[k]);
  }
  std::vector<std::vector<double>> xs;
  multi.solve_multi(rhs_ptrs, xs);
  ASSERT_EQ(xs.size(), rhs.size());
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    std::vector<double> ref;
    single.solve_into(rhs[k], ref);
    EXPECT_EQ(xs[k], ref) << "rhs " << k;
  }
}

// ---------------------------------------------------------------------
// Trusted-stream assembler fast path.

TEST(TrustedStream, FastPathBitIdenticalAndTagGated) {
  const std::size_t n = 6;
  auto stamp_round = [&](numeric::SparseAssembler& a, std::uint32_t tag,
                         std::size_t round) {
    a.begin(n, tag);
    for (std::size_t i = 0; i < n; ++i) a.add(i, i, 2.0 + wiggle(i, round));
    a.add(0, 3, wiggle(1, round));
    a.add(3, 0, wiggle(2, round));
    a.add(2, 2, wiggle(3, round));  // duplicate slot accumulation
    a.finish();
  };
  numeric::SparseAssembler tagged;
  numeric::SparseAssembler checked;
  for (std::size_t round = 0; round < 4; ++round) {
    stamp_round(tagged, 5, round);
    stamp_round(checked, 0, round);
    EXPECT_EQ(tagged.values(), checked.values()) << "round " << round;
    EXPECT_EQ(tagged.pattern().cols, checked.pattern().cols);
    // Trusted scatter engages from the second tagged round on; the
    // untagged assembler always runs the checked path.
    EXPECT_EQ(tagged.fast_path_used(), round > 0) << "round " << round;
    EXPECT_FALSE(checked.fast_path_used());
  }
  // A tag change refreezes: the next round must not trust stale slots.
  stamp_round(tagged, 9, 4);
  EXPECT_FALSE(tagged.fast_path_used());
  stamp_round(checked, 0, 4);
  EXPECT_EQ(tagged.values(), checked.values());
}

// ---------------------------------------------------------------------
// MnaMap::branch_at vs the string-keyed branch_index.

TEST(MnaMap, BranchAtMatchesBranchIndex) {
  const auto macro = flashadc::build_comparator_netlist();
  const auto bench = flashadc::instantiate_comparator_bench(macro, 0.01);
  const spice::MnaMap map(bench);
  std::size_t occurrence = 0;
  for (const auto& device : bench.devices()) {
    if (std::holds_alternative<spice::VoltageSource>(device) ||
        std::holds_alternative<spice::Vcvs>(device) ||
        std::holds_alternative<spice::Inductor>(device)) {
      EXPECT_EQ(map.branch_at(occurrence),
                map.branch_index(spice::device_name(device)));
      ++occurrence;
    }
  }
  EXPECT_GT(occurrence, 0u);
}

// ---------------------------------------------------------------------
// Precompiled MOSFET stamp plan (MosStampPlan).

// Assembles the comparator bench through the MOSFET kernel (SoA lanes,
// trusted stream, stamp plan) and through the scalar per-device
// eval_mos walk over several rounds of changing iterates, asserting
// bit-identical matrices and right-hand sides. Rounds 0/1 exercise the
// freeze and capture paths, later rounds the flat apply loop.
TEST(MosStampPlan, AssembliesBitIdenticalToStamperWalk) {
  const auto macro = flashadc::build_comparator_netlist();
  const auto bench = flashadc::instantiate_comparator_bench(macro, 0.02);
  const spice::MnaMap map(bench);

  std::size_t n_mos = 0;
  for (const auto& device : bench.devices())
    if (std::holds_alternative<spice::Mosfet>(device)) ++n_mos;
  ASSERT_GT(n_mos, 0u);

  spice::MosKernel kernel(bench, map);
  spice::StampOptions with_kernel;
  with_kernel.mos = &kernel;
  spice::StampOptions scalar = with_kernel;
  scalar.mos = nullptr;

  numeric::SparseAssembler a_kernel;
  numeric::SparseAssembler a_ref;
  std::vector<double> b_kernel;
  std::vector<double> b_ref;
  std::vector<double> x(map.size(), 0.0);
  const std::vector<double> x_prev(map.size(), 0.1);
  auto assemble_round = [&](std::size_t round) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1.5 * wiggle(i, round);
    assemble_mna(bench, map, x, x_prev, with_kernel, a_kernel, b_kernel);
    assemble_mna(bench, map, x, x_prev, scalar, a_ref, b_ref);
    EXPECT_EQ(a_kernel.values(), a_ref.values()) << "round " << round;
    EXPECT_EQ(b_kernel, b_ref) << "round " << round;
  };

  for (std::size_t round = 0; round < 5; ++round) {
    assemble_round(round);
    // Round 0 freezes the pattern, round 1 captures the plan, round 2+
    // run the flat apply loop.
    EXPECT_EQ(kernel.plan().ready, round >= 1) << "round " << round;
    EXPECT_EQ(a_kernel.fast_path_used(), round >= 1) << "round " << round;
  }
  EXPECT_EQ(kernel.plan().mat_ptr.size(), n_mos + 1);
  EXPECT_EQ(kernel.plan().b_ptr.size(), n_mos + 1);
  const std::uint32_t dc_tag = kernel.plan().tag;

  // The DC -> transient hand-off changes the stream tag, which
  // invalidates and recaptures the plan on the new stream.
  for (auto* stamp : {&with_kernel, &scalar}) {
    stamp->mode = spice::AnalysisMode::kTransient;
    stamp->dt = 1e-9;
  }
  for (std::size_t round = 5; round < 9; ++round) assemble_round(round);
  EXPECT_TRUE(kernel.plan().ready);
  EXPECT_NE(kernel.plan().tag, dc_tag);

  // Another kernel on the same assembler never inherits the trusted
  // stream: its first round runs the checked path.
  spice::MosKernel other(bench, map);
  with_kernel.mos = &other;
  assemble_round(9);
  EXPECT_FALSE(a_kernel.fast_path_used());
  assemble_round(10);
  EXPECT_TRUE(a_kernel.fast_path_used());
}

}  // namespace
}  // namespace dot

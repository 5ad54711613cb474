// Assembly building blocks: the SoA level-1 MOSFET kernel
// (DeviceBatch), MnaMap's branch lookup and the stamp program. Every
// kernel case asserts *bit* identity: the SoA lanes against the scalar
// eval_mos, a replayed stamp program against a fresh capture.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <variant>
#include <vector>

#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/tech.hpp"
#include "numeric/sparse.hpp"
#include "spice/dc.hpp"
#include "spice/devices.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "spice/solver.hpp"

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
// MnaMap::branch_at vs the string-keyed branch_index.

TEST(MnaMap, BranchAtMatchesBranchIndex) {
  const auto macro = flashadc::build_comparator_netlist();
  const auto bench = flashadc::instantiate_comparator_bench(macro, 0.01);
  const spice::MnaMap map(bench);
  std::size_t occurrence = 0;
  for (const auto& device : bench.devices()) {
    if (std::holds_alternative<spice::VoltageSource>(device)) {
      EXPECT_EQ(map.branch_at(occurrence),
                map.branch_index(spice::device_name(device)));
      ++occurrence;
    }
  }
  EXPECT_GT(occurrence, 0u);
}

// ---------------------------------------------------------------------
// The stamp program (StampProgram).

// Assembles through one long-lived MOSFET kernel, whose program is
// captured once per mode and then replayed (its static fields
// refreshed from the recipes when the static inputs move), and through
// a fresh kernel and assembler at the same static inputs, whose
// program is captured by this very assembly. Every round asserts
// byte-identical CSR patterns, values and right-hand sides.
struct ProgramHarness {
  const spice::Netlist& netlist;
  spice::MnaMap map;
  spice::StampOptions prog;
  numeric::SparseAssembler a_prog;
  std::vector<double> b_prog, b_fresh;
  std::vector<double> x;
  std::vector<double> x_prev;

  explicit ProgramHarness(const spice::Netlist& n)
      : netlist(n), map(n), x(map.size()), x_prev(map.size(), 0.1) {}

  // One Newton iteration at a fresh iterate.
  void round(std::size_t r) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = 1.5 * wiggle(i, r);
    assemble_mna(netlist, map, x, x_prev, prog, a_prog, b_prog);
    spice::MosKernel fresh(netlist, map);
    spice::StampOptions options = prog;
    options.mos = &fresh;
    numeric::SparseAssembler a_fresh;
    assemble_mna(netlist, map, x, x_prev, options, a_fresh, b_fresh);
    EXPECT_EQ(fresh.program().walks, 1u);
    EXPECT_EQ(a_prog.pattern(), a_fresh.pattern()) << "round " << r;
    ASSERT_EQ(a_prog.values().size(), a_fresh.values().size());
    EXPECT_EQ(std::memcmp(a_prog.values().data(), a_fresh.values().data(),
                          a_prog.values().size() * sizeof(double)),
              0)
        << "round " << r;
    ASSERT_EQ(b_prog.size(), b_fresh.size());
    EXPECT_EQ(std::memcmp(b_prog.data(), b_fresh.data(),
                          b_prog.size() * sizeof(double)),
              0)
        << "round " << r;
  }
  template <typename F>
  void set(F&& f) {
    f(prog);
  }
};

TEST(StampProgram, AssembliesBitIdenticalToAFreshCapture) {
  const auto macro = flashadc::build_comparator_netlist();
  const auto bench = flashadc::instantiate_comparator_bench(macro, 0.02);
  ProgramHarness h(bench);
  spice::MosKernel kernel(bench, h.map);
  ASSERT_GT(kernel.mos_count(), 0u);
  h.prog.mos = &kernel;

  // Repeated iterations of one DC solve: round 0 captures the program,
  // later rounds replay it.
  std::size_t r = 0;
  for (; r < 4; ++r) {
    h.round(r);
    EXPECT_TRUE(kernel.program().ready) << "round " << r;
    EXPECT_EQ(kernel.program().walks, 1u) << "round " << r;
  }
  // A continuation rung: new gshunt and source scale.
  h.prog.gshunt = 1e-6;
  h.prog.source_scale = 0.5;
  for (; r < 6; ++r) h.round(r);
  EXPECT_EQ(kernel.program().walks, 1u);

  // DC -> transient changes the stream (capacitors stamp): recapture.
  std::size_t caps = 0;
  for (const auto& device : bench.devices())
    caps += std::holds_alternative<spice::Capacitor>(device) ? 1u : 0u;
  ASSERT_GT(caps, 0u);
  std::vector<double> cap_i(caps, 0.0);
  h.prog.gshunt = 1e-12;
  h.prog.source_scale = 1.0;
  h.prog.mode = spice::AnalysisMode::kTransient;
  h.prog.time = 1e-9;
  h.prog.dt = 1e-9;
  h.prog.integrator = spice::Integrator::kTrapezoidal;
  h.prog.cap_i_prev = &cap_i;
  for (; r < 9; ++r) h.round(r);
  EXPECT_EQ(kernel.program().mode, spice::AnalysisMode::kTransient);
  EXPECT_EQ(kernel.program().walks, 2u);

  // New steps, each changing one static input: x_prev, cap_i_prev
  // (mutated in place), time, dt. The static fields must follow without
  // any invalidation.
  for (std::size_t input = 0; input < 4; ++input) {
    if (input == 0)
      for (std::size_t i = 0; i < h.x_prev.size(); ++i)
        h.x_prev[i] = wiggle(i, 100);
    if (input == 1)
      for (std::size_t i = 0; i < cap_i.size(); ++i)
        cap_i[i] = 1e-6 * wiggle(i, 200);
    if (input == 2) h.prog.time += h.prog.dt;
    if (input == 3) h.prog.dt = 0.5e-9;
    for (std::size_t it = 0; it < 3; ++it, ++r) h.round(r);
  }
  EXPECT_EQ(kernel.program().walks, 2u);

  // Another kernel of the same netlist on the same assembler captures
  // its own program; its stream freezes the same pattern, so the first
  // kernel's slots stay valid and it replays without a walk.
  spice::MosKernel other(bench, h.map);
  h.prog.mos = &other;
  h.round(r++);
  EXPECT_TRUE(h.a_prog.pattern_reused());
  EXPECT_EQ(other.program().walks, 1u);
  h.prog.mos = &kernel;
  h.round(r++);
  EXPECT_EQ(kernel.program().walks, 2u);

  // A kernel of another netlist freezes another pattern in the
  // assembler: the first kernel's next assembly recaptures.
  spice::Netlist divider;
  divider.add_vsource("v1", "in", "0", spice::SourceSpec::dc(1.0));
  divider.add_resistor("r1", "in", "out", 1e3);
  divider.add_resistor("r2", "out", "0", 1e3);
  const spice::MnaMap divider_map(divider);
  spice::MosKernel divider_kernel(divider, divider_map);
  spice::StampOptions divider_stamp;
  divider_stamp.mos = &divider_kernel;
  std::vector<double> divider_b;
  const std::vector<double> divider_x(divider_map.size(), 0.0);
  assemble_mna(divider, divider_map, divider_x, divider_x, divider_stamp,
               h.a_prog, divider_b);
  h.round(r++);
  EXPECT_EQ(kernel.program().walks, 3u);
  h.round(r++);
  EXPECT_EQ(kernel.program().walks, 3u);
}

// A multi-iteration DC solve of a DC bench captures its program once:
// every later Newton iteration, gmin and source-stepping rung replays
// it, and a second (warm) solve with the same kernel keeps it.
TEST(StampProgram, DcBenchSolveCapturesOnce) {
  const spice::Netlist driven = flashadc::decoder_dc_bench().drive(
      flashadc::build_decoder_netlist(), 0);
  const spice::MnaMap map(driven);
  spice::MosKernel kernel(driven, map);
  ASSERT_GT(kernel.mos_count(), 0u);
  spice::SolverContext solver;
  const auto cold =
      spice::dc_operating_point(driven, map, {}, nullptr, &solver, &kernel);
  ASSERT_TRUE(cold.converged);
  EXPECT_GT(cold.iterations, 1);
  EXPECT_EQ(kernel.program().walks, 1u);
  const auto warm =
      spice::dc_operating_point(driven, map, {}, &cold.x, &solver, &kernel);
  ASSERT_TRUE(warm.converged);
  EXPECT_EQ(kernel.program().walks, 1u);
  // The solve with a kernel of its own lands on the same point.
  spice::SolverContext own_solver;
  EXPECT_EQ(spice::dc_operating_point(driven, map, {}, nullptr, &own_solver).x,
            cold.x);
}

// The recipe refresh of the static fields against a fresh capture's
// walk, on a netlist holding every device kind: R, C (grounded and
// floating), a pulse V source, a DC V source and N/PMOS. Each round
// assembles through the long-lived kernel and through a fresh one; the
// CSR values and b must be equal byte for byte.
TEST(StampProgram, RecipeRefreshEqualsTheWalk) {
  spice::Netlist n;
  spice::PulseParams clk;
  clk.pulsed = 3.3;
  clk.delay = 1e-9;
  clk.rise = 0.5e-9;
  clk.fall = 0.5e-9;
  clk.width = 3e-9;
  clk.period = 8e-9;
  n.add_vsource("vdd", "vdd", "0", spice::SourceSpec::dc(3.3));
  n.add_vsource("vclk", "clk", "0", spice::SourceSpec::pulse(clk));
  n.add_resistor("rbias", "vdd", "bias", 460e3);
  n.add_resistor("r1", "vdd", "n1", 10e3);
  n.add_resistor("r2", "n1", "out", 5e3);
  n.add_resistor("r3", "n2", "0", 100e3);
  n.add_resistor("rb", "bias", "0", 200e3);
  n.add_capacitor("c1", "out", "0", 50e-15);
  n.add_capacitor("c2", "n1", "out", 20e-15);
  n.add_capacitor("c3", "clk", "n2", 5e-15);
  n.add_mosfet("m1", spice::MosType::kNmos, "out", "clk", "n2", "0", 2e-6,
               1e-6, flashadc::nmos_model());
  n.add_mosfet("m2", spice::MosType::kPmos, "out", "n1", "vdd", "vdd", 4e-6,
               1e-6, flashadc::pmos_model());
  n.add_mosfet("m3", spice::MosType::kNmos, "n2", "bias", "0", "0", 1e-6,
               1e-6, flashadc::nmos_model());
  ProgramHarness h(n);
  spice::MosKernel kernel(n, h.map);
  h.prog.mos = &kernel;
  const std::size_t caps = 3;
  std::vector<double> cap_i(caps, 0.0);

  std::size_t r = 0;
  auto rounds = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k, ++r) h.round(r);
  };

  // DC: round 0 captures, then replays.
  rounds(3);
  EXPECT_TRUE(kernel.program().ready);
  // A gshunt ladder, then source-stepping rungs.
  for (double g = 1e-3; g > 1e-12; g /= 10.0) {
    h.prog.gshunt = g;
    rounds(2);
  }
  for (int s = 1; s <= 8; ++s) {
    h.set([s](spice::StampOptions& o) {
      o.gshunt = 1e-12;
      o.source_scale = s / 8.0;
    });
    rounds(2);
  }

  // Backward-Euler steps: time and x_prev_step move every step.
  h.set([](spice::StampOptions& o) {
    o.mode = spice::AnalysisMode::kTransient;
    o.dt = 0.5e-9;
    o.time = 0.0;
  });
  auto advance = [&](std::size_t step) {
    for (std::size_t i = 0; i < h.x_prev.size(); ++i)
      h.x_prev[i] = 2.0 * wiggle(i, 50 + step);
    h.set([](spice::StampOptions& o) { o.time += o.dt; });
  };
  for (std::size_t step = 0; step < 6; ++step) {
    advance(step);
    rounds(2);
  }
  // A dt halving: the failed step's time point is retried at dt / 2.
  h.set([](spice::StampOptions& o) {
    o.time -= o.dt / 2.0;
    o.dt /= 2.0;
  });
  rounds(2);
  // Trapezoidal steps with moving capacitor currents.
  h.set([&cap_i](spice::StampOptions& o) {
    o.integrator = spice::Integrator::kTrapezoidal;
    o.cap_i_prev = &cap_i;
  });
  for (std::size_t step = 0; step < 4; ++step) {
    for (std::size_t i = 0; i < caps; ++i)
      cap_i[i] = 1e-6 * wiggle(i, 300 + step);
    advance(10 + step);
    rounds(2);
  }
  // The transient gshunt rescue ladder.
  for (double g = 1e-3; g >= 1e-12; g /= 10.0) {
    h.prog.gshunt = g;
    rounds(2);
  }

  // One capture walk per analysis mode (DC, transient); every other change
  // of the static inputs was a recipe refresh.
  EXPECT_EQ(kernel.program().walks, 2u);
  EXPECT_FALSE(kernel.program().recipes.empty());
}

}  // namespace
}  // namespace dot

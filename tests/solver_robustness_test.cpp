// Robustness tests for the nonlinear solver machinery: continuation
// fallbacks, loose acceptance of micro limit cycles, transient step
// halving, and hard-fault operating points (rail shorts).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "flashadc/biasgen.hpp"
#include "flashadc/chip.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/decoder.hpp"
#include "fault/model.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/montecarlo.hpp"
#include "spice/solver.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace dot::spice {
namespace {

MosModel simple_model() {
  MosModel m;
  m.gamma = 0.0;
  m.lambda = 0.02;
  return m;
}

TEST(Robustness, BistableLatchFindsAnOperatingPoint) {
  // Cross-coupled inverters with no stimulus: three DC solutions exist;
  // the solver must land on one of them, not fail.
  Netlist n;
  n.add_vsource("VDD", "vdd", "0", SourceSpec::dc(5.0));
  const auto m = simple_model();
  n.add_mosfet("MPA", MosType::kPmos, "q", "qb", "vdd", "vdd", 8e-6, 1e-6, m);
  n.add_mosfet("MNA", MosType::kNmos, "q", "qb", "0", "0", 4e-6, 1e-6, m);
  n.add_mosfet("MPB", MosType::kPmos, "qb", "q", "vdd", "vdd", 8e-6, 1e-6, m);
  n.add_mosfet("MNB", MosType::kNmos, "qb", "q", "0", "0", 4e-6, 1e-6, m);
  const MnaMap map(n);
  const auto result = dc_operating_point(n, map);
  EXPECT_TRUE(result.converged);
  const double q = map.voltage(result.x, *n.find_node("q"));
  EXPECT_GE(q, -0.1);
  EXPECT_LE(q, 5.1);
}

TEST(Robustness, HardRailShortConverges) {
  // 0.2 Ohm across the ideal 5 V supply: 25 A flows, everything else
  // stays biased. Regression test for the Newton micro-limit-cycle that
  // used to kill this operating point.
  const auto macro = flashadc::build_comparator_netlist();
  fault::CircuitFault f;
  f.kind = fault::FaultKind::kShort;
  f.nets = {"0", "vdda"};
  f.material = fault::BridgeMaterial::kMetal;
  const auto bad = fault::apply_fault(macro, f,
                                      fault::FaultModelOptions{.vdd_net = "vdda"});
  const auto run = flashadc::simulate_comparator(bad, 0.3);
  ASSERT_TRUE(run.converged);
  EXPECT_NEAR(run.ivdd[1], 25.0, 0.5);  // dominated by the short
}

TEST(Robustness, LooseAcceptanceRespectsBound) {
  // A well-behaved linear circuit must converge strictly (iterations
  // small), not via the loose path.
  Netlist n;
  n.add_vsource("V1", "a", "0", SourceSpec::dc(1.0));
  n.add_resistor("R1", "a", "b", 1e3);
  n.add_resistor("R2", "b", "0", 1e3);
  const MnaMap map(n);
  DcOptions opt;
  const auto result = dc_operating_point(n, map, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 5);
}

TEST(Robustness, SourceSteppingRecoversHardStart) {
  // Strongly regenerative circuit plus a big supply: even if plain
  // Newton oscillates, the continuation ladder must find the solution.
  Netlist n;
  n.add_vsource("VDD", "vdd", "0", SourceSpec::dc(5.0));
  const auto m = simple_model();
  // Chain of 6 inverters in a ring broken by a resistor (quasi-stable).
  std::string prev = "vdd";
  for (int i = 0; i < 6; ++i) {
    const std::string in = i == 0 ? "x5" : "x" + std::to_string(i - 1);
    const std::string out = "x" + std::to_string(i);
    n.add_mosfet("MP" + std::to_string(i), MosType::kPmos, out, in, "vdd",
                 "vdd", 8e-6, 1e-6, m);
    n.add_mosfet("MN" + std::to_string(i), MosType::kNmos, out, in, "0", "0",
                 4e-6, 1e-6, m);
  }
  n.add_resistor("RB", "x5", "x0", 100e3);
  const MnaMap map(n);
  const auto result = dc_operating_point(n, map);
  EXPECT_TRUE(result.converged);
}

// The DC operating point of a clean and of a rail-shorted comparator
// bench converges whether plain Newton converges strictly, accepts
// loosely, or fails and hands over to the gmin ladder -- and the last
// case does occur.
TEST(Robustness, DcFirstSolveReproducesTheScalarOperatingPoint) {
  fault::CircuitFault rail_short;
  rail_short.kind = fault::FaultKind::kShort;
  rail_short.nets = {"0", "vdda"};
  rail_short.material = fault::BridgeMaterial::kMetal;
  const auto macro = flashadc::build_comparator_netlist();
  const auto shorted = fault::apply_fault(
      macro, rail_short, fault::FaultModelOptions{.vdd_net = "vdda"});
  const std::vector<Netlist> benches = {
      flashadc::instantiate_comparator_bench(macro, 0.009),
      flashadc::instantiate_comparator_bench(shorted, 0.3)};

  DcOptions strict;
  DcOptions loose = strict;
  loose.vtol = 0.0;  // never strict: the best iterate is accepted
  DcOptions ladder = strict;
  ladder.max_iterations = 10;  // too few for plain Newton
  int ladder_runs = 0;
  for (const DcOptions& options : {strict, loose, ladder}) {
    for (std::size_t c = 0; c < benches.size(); ++c) {
      const Netlist& n = benches[c];
      const MnaMap map(n);
      MosKernel kernel(n, map);
      StampOptions stamp;  // DC at t = 0, as dc_operating_point stamps
      stamp.gshunt = options.gshunt;
      stamp.mos = &kernel;
      const std::vector<double> zeros(map.size(), 0.0);
      const DcResult plain = newton_solve(n, map, {}, stamp, options, zeros);
      ASSERT_TRUE(dc_operating_point(n, map, options).converged)
          << "bench " << c;
      if (!plain.converged) ++ladder_runs;
    }
  }
  EXPECT_GT(ladder_runs, 0);
}

TEST(Robustness, TransientStepHalvingHandlesFastEdge) {
  // 10 ps edges with a 1 ns base step force the halving path.
  Netlist n;
  PulseParams p;
  p.initial = 0.0;
  p.pulsed = 5.0;
  p.delay = 5e-9;
  p.rise = 10e-12;
  p.fall = 10e-12;
  p.width = 5e-9;
  n.add_vsource("V1", "in", "0", SourceSpec::pulse(p));
  n.add_resistor("R1", "in", "out", 100.0);
  n.add_capacitor("C1", "out", "0", 1e-12);
  TranOptions opt;
  opt.t_stop = 20e-9;
  opt.dt = 1e-9;
  const auto result = transient(n, opt);
  EXPECT_NEAR(result.voltage_at(9.9e-9, "out"), 5.0, 0.05);
  EXPECT_NEAR(result.voltage_at(19.9e-9, "out"), 0.0, 0.05);
}

TEST(Robustness, StepHalvingRecoversOffTheBaseGrid) {
  // A 1 V ramp over one base step moves the driven node past the 0.6 V
  // damping bound, so a 2-iteration Newton budget fails the full step
  // and accepts the halved one. The step size then doubles back to dt
  // from t + dt/2: every later point sits half a step off the base grid
  // (only t_stop is clamped back onto it), so readers of such a run
  // interpolate between points.
  PulseParams ramp;
  ramp.pulsed = 1.0;
  ramp.delay = 1e-9;
  ramp.rise = 1e-9;
  ramp.width = 1.0;
  Netlist n;
  n.add_vsource("V1", "in", "0", SourceSpec::pulse(ramp));
  n.add_resistor("R1", "in", "out", 1e3);
  n.add_capacitor("C1", "out", "0", 1e-12);
  TranOptions opt;
  opt.t_stop = 5e-9;
  opt.dt = 1e-9;
  opt.newton.max_iterations = 2;
  const auto result = transient(n, opt);
  EXPECT_EQ(result.stats().gshunt_rescues, 0u);  // halving alone recovers
  const std::vector<double> expected = {0.0,    1e-9,   1.5e-9, 2.5e-9,
                                        3.5e-9, 4.5e-9, 5e-9};
  ASSERT_EQ(result.steps(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(result.time(i), expected[i], 1e-21) << "point " << i;
  EXPECT_NEAR(result.voltage(2, "in"), 0.5, 1e-12);
}

/// FNV-1a (64 bit) of the bytes of `values`, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::vector<double>& values) {
  for (const double v : values) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// Systems below SolverOptions::sparse_threshold take the dense LU. These
// digests of every solution byte were recorded when such systems still
// assembled into a dense matrix; assembling into the CSR workspace and
// densifying it must keep each double bit-identical.
TEST(SmallSystemPin, BiasgenOperatingPointIsBitIdentical) {
  const auto context = flashadc::make_dc_context(
      flashadc::biasgen_dc_bench(), flashadc::build_biasgen_netlist());
  ASSERT_LT(context.map.size(), SolverOptions{}.sparse_threshold);
  EXPECT_EQ(fnv1a(kFnvBasis, context.golden[0]), 0x05f75b94aa1f7ccfull);
}

// Every drive state's golden operating point of the two DC benches
// with the most MOSFETs, chained into one digest. Recorded when DC
// solves still stamped each MOSFET with the scalar eval_mos; the stamp
// program's replay must keep every double bit-identical.
std::uint64_t golden_digest(const flashadc::DcContext& context) {
  std::uint64_t h = kFnvBasis;
  for (const auto& x : context.golden) h = fnv1a(h, x);
  return h;
}

TEST(SmallSystemPin, ClockgenOperatingPointsAreBitIdentical) {
  const auto context = flashadc::make_dc_context(
      flashadc::clockgen_dc_bench(), flashadc::build_clockgen_netlist());
  ASSERT_GT(context.golden.size(), 1u);
  EXPECT_EQ(golden_digest(context), 0x1dbe0dbd9126c359ull);
}

TEST(SmallSystemPin, DecoderOperatingPointsAreBitIdentical) {
  const auto context = flashadc::make_dc_context(
      flashadc::decoder_dc_bench(), flashadc::build_decoder_netlist());
  ASSERT_GT(context.golden.size(), 1u);
  EXPECT_EQ(golden_digest(context), 0x1a1a58df79eab2cdull);
}

TEST(SmallSystemPin, DenseComparatorTransientIsBitIdentical) {
  const auto bench = flashadc::instantiate_comparator_bench(
      flashadc::build_comparator_netlist(), flashadc::kDecisionGrid.front());
  TranOptions options = flashadc::comparator_tran_options();
  options.solver.sparse_threshold = SIZE_MAX;  // the dense LU at 39 unknowns
  const auto result = transient(bench, options);
  EXPECT_FALSE(result.stats().sparse);
  std::uint64_t h = fnv1a(kFnvBasis, result.times());
  for (std::size_t i = 0; i < result.steps(); ++i)
    h = fnv1a(h, result.state(i));
  EXPECT_EQ(h, 0x4be0709c048f67c4ull);
}

TEST(Robustness, TransientThrowsWhenTrulyStuck) {
  // An inconsistent circuit: two ideal voltage sources fighting across
  // the same node pair makes the system singular at every step size.
  Netlist n;
  n.add_vsource("V1", "a", "0", SourceSpec::dc(1.0));
  n.add_vsource("V2", "a", "0", SourceSpec::dc(2.0));
  n.add_resistor("RL", "a", "0", 1e3);
  TranOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 1e-10;
  EXPECT_THROW(transient(n, opt), util::ConvergenceError);
}

TEST(Robustness, DcThrowsOnConflictingSources) {
  Netlist n;
  n.add_vsource("V1", "a", "0", SourceSpec::dc(1.0));
  n.add_vsource("V2", "a", "0", SourceSpec::dc(2.0));
  n.add_resistor("RL", "a", "0", 1e3);
  const MnaMap map(n);
  EXPECT_THROW(dc_operating_point(n, map), util::ConvergenceError);
}

TEST(Robustness, GshuntLadderRescuesColumnSizedZeroStateStep) {
  // Regression for the full-chip envelope: this exact Monte-Carlo
  // sample of the perturbed 64-slice chip bench (seed 1995 ^ 0xc41b,
  // split index 1 -- vt_shift about -30 mV at 59 C) fails the t = 0
  // zero-state Newton step at EVERY dt down to dt_min, because the
  // failure is the operating region, not the step size. The transient
  // must fall back to the gshunt continuation ladder and complete; the
  // accepted trajectory is exact (the ladder's final rung runs the
  // unmodified system). Before the ladder existed this run threw
  // ConvergenceError and column-scale envelopes lost every sample.
  flashadc::ChipOptions chip_opt;
  chip_opt.slices = 64;
  const auto cell = flashadc::build_chip_macro(chip_opt);
  const int mid_slice = chip_opt.slices / 2;
  ProcessSpread spread;
  const util::Rng master(1995ull ^ 0xc41b);
  util::Rng rng = master.split(1);
  const auto env = sample_environment(spread, rng);
  const Netlist bench =
      perturb(flashadc::instantiate_chip_bench(
                  cell.netlist, chip_opt, mid_slice,
                  flashadc::kDecisionGrid.front()),
              spread, env, {"VDDA", "VDDD"}, rng);
  const TranResult tran = transient(bench, flashadc::chip_tran_options());
  EXPECT_GE(tran.stats().gshunt_rescues, 1u);
  const auto run = flashadc::extract_chip_run(tran, chip_opt, mid_slice);
  EXPECT_TRUE(run.converged);
}

}  // namespace
}  // namespace dot::spice

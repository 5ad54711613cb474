#include <gtest/gtest.h>

#include <cmath>

#include "spice/dc.hpp"
#include "spice/devices.hpp"
#include "spice/mna.hpp"
#include "spice/montecarlo.hpp"
#include "spice/netlist.hpp"
#include "spice/source_spec.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace dot::spice {
namespace {

MosModel simple_nmos() {
  MosModel m;
  m.vt0 = 0.7;
  m.kp = 100e-6;
  m.lambda = 0.0;
  m.gamma = 0.0;
  return m;
}

TEST(SourceSpec, DcAndScale) {
  SourceSpec s = SourceSpec::dc(5.0);
  EXPECT_DOUBLE_EQ(s.eval(0.0), 5.0);
  EXPECT_DOUBLE_EQ(s.eval(1.0), 5.0);
  s.scale(0.5);
  EXPECT_DOUBLE_EQ(s.eval(0.0), 2.5);
}

TEST(SourceSpec, PulseShape) {
  PulseParams p;
  p.initial = 0.0;
  p.pulsed = 5.0;
  p.delay = 10e-9;
  p.rise = 1e-9;
  p.fall = 1e-9;
  p.width = 5e-9;
  p.period = 20e-9;
  const SourceSpec s = SourceSpec::pulse(p);
  EXPECT_DOUBLE_EQ(s.eval(0.0), 0.0);
  EXPECT_NEAR(s.eval(10.5e-9), 2.5, 1e-9);  // mid-rise
  EXPECT_DOUBLE_EQ(s.eval(13e-9), 5.0);     // flat top
  EXPECT_NEAR(s.eval(16.5e-9), 2.5, 1e-9);  // mid-fall
  EXPECT_DOUBLE_EQ(s.eval(19e-9), 0.0);    // back low
  EXPECT_DOUBLE_EQ(s.eval(33e-9), 5.0);    // second period flat top
}

TEST(Netlist, NodeCreationAndGroundAliases) {
  Netlist n;
  EXPECT_EQ(n.node("0"), kGround);
  EXPECT_EQ(n.node("gnd"), kGround);
  const NodeId a = n.node("a");
  EXPECT_EQ(n.node("a"), a);
  EXPECT_NE(a, kGround);
  EXPECT_EQ(n.node_name(a), "a");
  EXPECT_FALSE(n.find_node("missing").has_value());
}

TEST(Netlist, DuplicateDeviceNameThrows) {
  Netlist n;
  n.add_resistor("R1", "a", "0", 100.0);
  EXPECT_THROW(n.add_resistor("R1", "b", "0", 100.0),
               util::InvalidInputError);
}

TEST(MosModel, SaturationCurrentMatchesSquareLaw) {
  const MosModel m = simple_nmos();
  // vgs = 2, vds = 3 > vov = 1.3 -> saturation.
  const auto op = eval_mos(m, 2.0, 2.0, 3.0, 0.0);
  // Square law plus the (tiny) leakage floor that keeps the model
  // continuous through the threshold.
  const double expected = 0.5 * m.kp * 2.0 * 1.3 * 1.3;
  EXPECT_NEAR(op.ids, expected, 5e-9);
  EXPECT_NEAR(op.gm, m.kp * 2.0 * 1.3, 1e-9);
  EXPECT_NEAR(op.gds, 0.0, 1e-12);
}

TEST(MosModel, TriodeCurrent) {
  const MosModel m = simple_nmos();
  const auto op = eval_mos(m, 1.0, 2.0, 0.5, 0.0);
  const double expected = m.kp * (1.3 * 0.5 - 0.5 * 0.25);
  EXPECT_NEAR(op.ids, expected, 1e-9);
}

TEST(MosModel, CutoffLeakageSmallButPositive) {
  const MosModel m = simple_nmos();
  const auto op = eval_mos(m, 1.0, 0.0, 5.0, 0.0);
  EXPECT_GT(op.ids, 0.0);
  EXPECT_LT(op.ids, 1e-9);
}

TEST(MosModel, SymmetryUnderTerminalSwap) {
  // Ids(vgs, vds) for vds < 0 must equal -Ids evaluated with swapped
  // terminals: continuity of the symmetric level-1 model.
  const MosModel m = simple_nmos();
  const auto fwd = eval_mos(m, 1.0, 2.0, 0.3, 0.0);
  // Swapped view: gate-to-"new source" = vgs - vds = 1.7, vds = 0.3.
  const auto rev = eval_mos(m, 1.0, 1.7, -0.3, -0.3);
  EXPECT_NEAR(rev.ids, -fwd.ids, 1e-12);
}

TEST(MosModel, SmallVdsConductanceContinuity) {
  // Around vds = 0 the current should be ~linear with matching slopes on
  // both sides.
  const MosModel m = simple_nmos();
  const double eps = 1e-6;
  const auto plus = eval_mos(m, 1.0, 2.0, eps, 0.0);
  const auto minus = eval_mos(m, 1.0, 2.0, -eps, 0.0);
  EXPECT_NEAR(plus.ids, -minus.ids, 1e-12);
  EXPECT_NEAR(plus.gds, minus.gds, 1e-6);
}

TEST(MosModel, BodyEffectRaisesThreshold) {
  MosModel m = simple_nmos();
  m.gamma = 0.5;
  const auto no_bias = eval_mos(m, 1.0, 2.0, 3.0, 0.0);
  const auto back_bias = eval_mos(m, 1.0, 2.0, 3.0, -2.0);
  EXPECT_LT(back_bias.ids, no_bias.ids);
}

TEST(Dc, ResistorDivider) {
  Netlist n;
  n.add_vsource("V1", "in", "0", SourceSpec::dc(10.0));
  n.add_resistor("R1", "in", "mid", 1000.0);
  n.add_resistor("R2", "mid", "0", 1000.0);
  const MnaMap map(n);
  const auto result = dc_operating_point(n, map);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(map.voltage(result.x, n.node("mid")), 5.0, 1e-6);
  // Branch current: 10V over 2k = 5 mA drawn from the source; positive
  // branch current flows pos->neg inside the source, so it is -5 mA.
  EXPECT_NEAR(map.branch_current(result.x, "V1"), -5e-3, 1e-8);
}

TEST(Dc, NmosSaturationOperatingPoint) {
  // Common-source NMOS with drain resistor: solve the quadratic by hand
  // and compare.
  Netlist n;
  n.add_vsource("VDD", "vdd", "0", SourceSpec::dc(5.0));
  n.add_vsource("VG", "g", "0", SourceSpec::dc(1.7));
  n.add_resistor("RD", "vdd", "d", 10e3);
  MosModel m = simple_nmos();
  n.add_mosfet("M1", MosType::kNmos, "d", "g", "0", "0", 10e-6, 1e-6, m);
  const MnaMap map(n);
  const auto result = dc_operating_point(n, map);
  EXPECT_TRUE(result.converged);
  // A saturation assumption gives Id = 0.5 mA -> 5 V drop over RD, so the
  // transistor is actually in triode: (5 - vd)/10k = 1e-3*(vov*vd - vd^2/2)
  // with vov = 1 -> 5*vd^2 - 11*vd + 5 = 0 -> vd = (11 - sqrt(21))/10.
  const double vd = map.voltage(result.x, n.node("d"));
  EXPECT_NEAR(vd, (11.0 - std::sqrt(21.0)) / 10.0, 1e-3);
}

TEST(Dc, CmosInverterTransfersLogicLevels) {
  Netlist n;
  n.add_vsource("VDD", "vdd", "0", SourceSpec::dc(5.0));
  n.add_vsource("VIN", "in", "0", SourceSpec::dc(0.0));
  MosModel nm = simple_nmos();
  MosModel pm = simple_nmos();
  pm.kp = 40e-6;
  n.add_mosfet("MN", MosType::kNmos, "out", "in", "0", "0", 4e-6, 1e-6, nm);
  n.add_mosfet("MP", MosType::kPmos, "out", "in", "vdd", "vdd", 10e-6, 1e-6,
               pm);
  const MnaMap map(n);
  // Input low -> output high.
  auto low = dc_operating_point(n, map);
  EXPECT_NEAR(map.voltage(low.x, n.node("out")), 5.0, 0.05);
  // Input high -> output low.
  auto* vin = n.find_device("VIN");
  std::get<VoltageSource>(*vin).spec = SourceSpec::dc(5.0);
  auto high = dc_operating_point(n, map);
  EXPECT_NEAR(map.voltage(high.x, n.node("out")), 0.0, 0.05);
}

TEST(Transient, RcChargingMatchesAnalytic) {
  Netlist n;
  PulseParams p;
  p.initial = 0.0;
  p.pulsed = 1.0;
  p.delay = 0.0;
  p.rise = 1e-12;
  p.fall = 1e-12;
  p.width = 1.0;  // effectively a step
  n.add_vsource("V1", "in", "0", SourceSpec::pulse(p));
  n.add_resistor("R1", "in", "out", 1e3);
  n.add_capacitor("C1", "out", "0", 1e-6);  // tau = 1 ms
  TranOptions opt;
  opt.t_stop = 3e-3;
  opt.dt = 5e-6;
  const auto result = transient(n, opt);
  for (double t : {0.5e-3, 1e-3, 2e-3}) {
    const double expected = 1.0 - std::exp(-t / 1e-3);
    EXPECT_NEAR(result.voltage_at(t, "out"), expected, 0.01);
  }
}

TEST(Transient, CapacitorCurrentFlowsThroughSource) {
  // Charging current through V1 should start near 1 mA and decay.
  Netlist n;
  PulseParams p;
  p.initial = 0.0;
  p.pulsed = 1.0;
  p.rise = 1e-12;
  p.fall = 1e-12;
  p.width = 1.0;
  n.add_vsource("V1", "in", "0", SourceSpec::pulse(p));
  n.add_resistor("R1", "in", "out", 1e3);
  n.add_capacitor("C1", "out", "0", 1e-6);
  TranOptions opt;
  opt.t_stop = 2e-3;
  opt.dt = 5e-6;
  const auto result = transient(n, opt);
  // Current convention: drawn current appears negative at the source.
  EXPECT_NEAR(result.current_at(20e-6, "V1"), -1e-3 * std::exp(-0.02), 5e-5);
  EXPECT_NEAR(result.current_at(2e-3, "V1"), -1e-3 * std::exp(-2.0), 2e-5);
}

TEST(Transient, InverterSwitches) {
  Netlist n;
  n.add_vsource("VDD", "vdd", "0", SourceSpec::dc(5.0));
  PulseParams p;
  p.initial = 0.0;
  p.pulsed = 5.0;
  p.delay = 10e-9;
  p.rise = 1e-9;
  p.fall = 1e-9;
  p.width = 20e-9;
  n.add_vsource("VIN", "in", "0", SourceSpec::pulse(p));
  MosModel nm = simple_nmos();
  MosModel pm = simple_nmos();
  n.add_mosfet("MN", MosType::kNmos, "out", "in", "0", "0", 4e-6, 1e-6, nm);
  n.add_mosfet("MP", MosType::kPmos, "out", "in", "vdd", "vdd", 8e-6, 1e-6,
               pm);
  n.add_capacitor("CL", "out", "0", 50e-15);
  TranOptions opt;
  opt.t_stop = 40e-9;
  opt.dt = 0.1e-9;
  const auto result = transient(n, opt);
  EXPECT_GT(result.voltage_at(9e-9, "out"), 4.9);   // before the pulse
  EXPECT_LT(result.voltage_at(25e-9, "out"), 0.1);  // during the pulse
}

TEST(Transient, RejectsBadOptions) {
  Netlist n;
  n.add_resistor("R1", "a", "0", 1.0);
  TranOptions opt;
  opt.dt = -1.0;
  EXPECT_THROW(transient(n, opt), util::InvalidInputError);
}

TEST(MonteCarlo, EnvironmentSampleInRange) {
  ProcessSpread spread;
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto s = sample_environment(spread, rng);
    EXPECT_GE(s.temperature_c, spread.temp_min_c);
    EXPECT_LE(s.temperature_c, spread.temp_max_c);
    EXPECT_GT(s.supply_scale, 0.0);
    EXPECT_GT(s.leak_scale, 0.0);
  }
}

TEST(MonteCarlo, PerturbScalesSupplyOnlyForListedSources) {
  Netlist n;
  n.add_vsource("VDD", "vdd", "0", SourceSpec::dc(5.0));
  n.add_vsource("VIN", "in", "0", SourceSpec::dc(1.0));
  n.add_resistor("R1", "vdd", "in", 1e3);
  ProcessSpread spread;
  EnvironmentSample s;
  s.supply_scale = 1.1;
  s.res_scale = 2.0;
  util::Rng rng(4);
  spread.res_sigma_rel_mismatch = 0.0;
  spread.res_tc = 0.0;
  const Netlist out = perturb(n, spread, s, {"VDD"}, rng);
  EXPECT_NEAR(std::get<VoltageSource>(*out.find_device("VDD")).spec.eval(0),
              5.5, 1e-12);
  EXPECT_NEAR(std::get<VoltageSource>(*out.find_device("VIN")).spec.eval(0),
              1.0, 1e-12);
  EXPECT_NEAR(std::get<Resistor>(*out.find_device("R1")).ohms, 2e3, 1e-9);
}

TEST(MonteCarlo, PerturbRejectsASupplyNameNoSourceCarries) {
  Netlist n;
  n.add_vsource("VDD", "vdd", "0", SourceSpec::dc(5.0));
  n.add_resistor("R1", "vdd", "0", 1e3);
  const ProcessSpread spread;
  const EnvironmentSample s;
  util::Rng rng(6);
  // A listed name that matches nothing would leave the supply unscaled.
  EXPECT_THROW(perturb(n, spread, s, {"VDD", "VDDD"}, rng),
               util::InvalidInputError);
  // A device of that name that is not a source is no supply either.
  EXPECT_THROW(perturb(n, spread, s, {"R1"}, rng), util::InvalidInputError);
  EXPECT_NO_THROW(perturb(n, spread, s, {"VDD"}, rng));
}

TEST(MonteCarlo, TemperatureShiftsThresholdAndLeakage) {
  Netlist n;
  n.add_mosfet("M1", MosType::kNmos, "d", "g", "0", "0", 1e-6, 1e-6,
               MosModel{});
  ProcessSpread spread;
  spread.vt_sigma_mismatch = 0.0;
  spread.kp_sigma_rel_mismatch = 0.0;
  EnvironmentSample s;  // all scales 1
  s.temperature_c = 87.0;  // +60 K
  util::Rng rng(5);
  const Netlist out = perturb(n, spread, s, {}, rng);
  const auto& m = std::get<Mosfet>(*out.find_device("M1")).model;
  EXPECT_NEAR(m.vt0, MosModel{}.vt0 - 2e-3 * 60.0, 1e-9);
  EXPECT_NEAR(m.i_leak0 / MosModel{}.i_leak0, 64.0, 1e-6);
  EXPECT_LT(m.kp, MosModel{}.kp);
}

}  // namespace
}  // namespace dot::spice

// Integration-method tests: trapezoidal must be markedly more accurate
// than backward Euler on smooth circuits at the same step size, and its
// order of accuracy must be ~2 versus ~1.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/netlist.hpp"
#include "spice/transient.hpp"

namespace dot::spice {
namespace {

/// RC low-pass driven from rest by a 0 -> 1 V ramp over kRise; the run
/// stops at half the ramp. Error against the analytic solution
/// v = (t - tau (1 - exp(-t/tau))) / kRise at t_stop. The drive has no
/// corner inside the run, so the integrators exhibit their nominal
/// orders (a step input would limit both to first order globally).
double rc_ramp_error(Integrator integrator, double dt) {
  constexpr double kR = 1e3, kC = 1e-6, kRise = 4e-3;
  PulseParams ramp;
  ramp.pulsed = 1.0;
  ramp.rise = kRise;
  ramp.width = 1.0;
  Netlist n;
  n.add_vsource("V1", "in", "0", SourceSpec::pulse(ramp));
  n.add_resistor("R1", "in", "out", kR);
  n.add_capacitor("C1", "out", "0", kC);
  TranOptions opt;
  opt.t_stop = 2e-3;
  opt.dt = dt;
  opt.integrator = integrator;
  const auto result = transient(n, opt);

  const double tau = kR * kC;
  const double t = opt.t_stop;
  const double expected = (t - tau * (1.0 - std::exp(-t / tau))) / kRise;
  return std::fabs(result.voltage(result.steps() - 1, "out") - expected);
}

TEST(Integrator, TrapezoidalBeatsBackwardEuler) {
  const double dt = 20e-6;
  const double be = rc_ramp_error(Integrator::kBackwardEuler, dt);
  const double trap = rc_ramp_error(Integrator::kTrapezoidal, dt);
  EXPECT_LT(trap, be / 20.0);
}

TEST(Integrator, ObservedOrders) {
  // Halving the step should roughly halve BE's error and quarter TRAP's.
  const double be1 = rc_ramp_error(Integrator::kBackwardEuler, 40e-6);
  const double be2 = rc_ramp_error(Integrator::kBackwardEuler, 20e-6);
  EXPECT_NEAR(be1 / be2, 2.0, 0.4);
  const double tr1 = rc_ramp_error(Integrator::kTrapezoidal, 40e-6);
  const double tr2 = rc_ramp_error(Integrator::kTrapezoidal, 20e-6);
  EXPECT_NEAR(tr1 / tr2, 4.0, 1.2);
}

TEST(Integrator, TrapezoidalLcOscillatorHoldsAmplitude) {
  // Series RLC is not supported (no inductor), but an RC relaxation
  // driven by a periodic 0..1 V triangle (a pulse with rise = fall =
  // half the 1 ms period) exercises the phase accuracy: TRAP tracks the
  // steady-state peak at coarse steps (dt = tau/5).
  PulseParams tri;
  tri.pulsed = 1.0;
  tri.rise = 0.5e-3;
  tri.fall = 0.5e-3;
  tri.period = 1e-3;
  Netlist n;
  n.add_vsource("V1", "in", "0", SourceSpec::pulse(tri));
  n.add_resistor("R1", "in", "out", 1e3);
  n.add_capacitor("C1", "out", "0", 0.1e-6);  // pole above the tone
  TranOptions opt;
  opt.t_stop = 2e-3;
  opt.dt = 20e-6;
  opt.integrator = Integrator::kTrapezoidal;
  const auto result = transient(n, opt);
  // Steady-state peak for slope a = 1/h over half period h:
  // 1 - a tau ln(1 + tanh(h / (2 tau))) = 0.863.
  const double tau = 1e3 * 0.1e-6, a = 1.0 / tri.rise;
  const double expected =
      1.0 - a * tau * std::log(1.0 + std::tanh(tri.rise / (2.0 * tau)));
  double peak = 0.0;
  for (std::size_t i = result.steps() / 2; i < result.steps(); ++i)
    peak = std::max(peak, std::fabs(result.voltage(i, "out")));
  EXPECT_NEAR(peak, expected, 0.03);
}

TEST(Integrator, ComparatorStillResolvesWithTrapezoidal) {
  // The clocked comparator relies on damped dynamics; TRAP must not be
  // the default, but the engine should still run it without blowing up
  // on a plain RC-loaded inverter.
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
  MosModel m;
  n.add_mosfet("MN", MosType::kNmos, "out", "in", "0", "0", 4e-6, 1e-6, m);
  n.add_mosfet("MP", MosType::kPmos, "out", "in", "vdd", "vdd", 8e-6, 1e-6,
               m);
  n.add_capacitor("CL", "out", "0", 100e-15);
  TranOptions opt;
  opt.t_stop = 40e-9;
  opt.dt = 0.2e-9;
  opt.integrator = Integrator::kTrapezoidal;
  const auto result = transient(n, opt);
  EXPECT_GT(result.voltage_at(9e-9, "out"), 4.8);
  EXPECT_LT(result.voltage_at(25e-9, "out"), 0.2);
}

}  // namespace
}  // namespace dot::spice

#include "flashadc/clockgen.hpp"

#include <algorithm>
#include <cmath>

#include "flashadc/tech.hpp"
#include "layout/synth.hpp"

namespace dot::flashadc {

using spice::MosType;
using spice::Netlist;
using spice::SourceSpec;

namespace {

/// CMOS inverter helper.
void add_inverter(Netlist& n, const std::string& name,
                  const std::string& in, const std::string& out, double wn,
                  double wp) {
  const double L = 1e-6;
  n.add_mosfet("MP_" + name, MosType::kPmos, out, in, "vddd", "vddd", wp, L,
               pmos_model());
  n.add_mosfet("MN_" + name, MosType::kNmos, out, in, "0", "0", wn, L,
               nmos_model());
}

/// Two-input NAND.
void add_nand(Netlist& n, const std::string& name, const std::string& a,
              const std::string& b, const std::string& out) {
  const double L = 1e-6;
  n.add_mosfet("MPA_" + name, MosType::kPmos, out, a, "vddd", "vddd", 8e-6, L,
               pmos_model());
  n.add_mosfet("MPB_" + name, MosType::kPmos, out, b, "vddd", "vddd", 8e-6, L,
               pmos_model());
  n.add_mosfet("MNA_" + name, MosType::kNmos, out, a, name + "_x", "0", 8e-6,
               L, nmos_model());
  n.add_mosfet("MNB_" + name, MosType::kNmos, name + "_x", b, "0", "0", 8e-6,
               L, nmos_model());
}

}  // namespace

Netlist build_clockgen_netlist() {
  Netlist n;
  // Input conditioning and delay chain.
  add_inverter(n, "i1", "clk", "nclk", 4e-6, 8e-6);
  add_inverter(n, "i2", "nclk", "d1", 4e-6, 8e-6);
  add_inverter(n, "i3", "d1", "d2", 4e-6, 8e-6);
  add_inverter(n, "i4", "d2", "d3", 4e-6, 8e-6);

  // Phase 1 (sampling): buffered clock. nand(clk, clk) == nclk; buffer.
  add_nand(n, "g1", "clk", "d1", "p1n");
  add_inverter(n, "b1a", "p1n", "p1", 8e-6, 16e-6);
  add_inverter(n, "b1b", "p1", "p1b", 12e-6, 24e-6);
  add_inverter(n, "b1c", "p1b", "clk1", 24e-6, 48e-6);

  // Phase 2 (amplification): active when clk low and delayed clk high.
  add_nand(n, "g2", "nclk", "d2", "p2n");
  add_inverter(n, "b2a", "p2n", "p2", 8e-6, 16e-6);
  add_inverter(n, "b2b", "p2", "p2b", 12e-6, 24e-6);
  add_inverter(n, "b2c", "p2b", "clk2", 24e-6, 48e-6);

  // Phase 3 (latching): clk low and twice-delayed clock low.
  add_nand(n, "g3", "nclk", "d3", "p3n");
  add_inverter(n, "b3a", "p3n", "p3", 8e-6, 16e-6);
  add_inverter(n, "b3b", "p3", "p3b", 12e-6, 24e-6);
  add_inverter(n, "b3c", "p3b", "clk3", 24e-6, 48e-6);

  return n;
}

std::vector<std::string> clockgen_pins() {
  return {"clk", "clk1", "clk2", "clk3", "vddd", "0"};
}

layout::CellLayout build_clockgen_layout() {
  layout::SynthOptions opt;
  opt.vdd_net = "vddd";
  opt.pins = clockgen_pins();
  return layout::synthesize_layout(build_clockgen_netlist(), "clockgen", opt);
}

macro::MacroCell build_clockgen_macro() {
  return macro::MacroCell("clockgen", build_clockgen_netlist(),
                          build_clockgen_layout(), clockgen_pins(), 1);
}

namespace {

Netlist driven_clockgen(const Netlist& macro_netlist, int state) {
  Netlist n = macro_netlist;
  n.add_vsource("VDDD", "vddd", "0", SourceSpec::dc(kVddd));
  n.add_vsource("VCLK", "clk_src", "0",
                SourceSpec::dc(state == 0 ? 0.0 : kVddd));
  n.add_resistor("RCLKIN", "clk_src", "clk", 100.0);
  // Each phase output drives the comparator-column distribution line.
  for (const char* o : {"clk1", "clk2", "clk3"})
    n.add_capacitor(std::string("CL_") + o, o, "0", 5e-12);
  return n;
}

}  // namespace

DcBench clockgen_dc_bench() { return {2, driven_clockgen}; }

ClockgenSolution solve_clockgen(const Netlist& macro_netlist,
                                const DcContext* context) {
  ClockgenSolution out;
  out.converged = solve_dc(
      clockgen_dc_bench(), macro_netlist, context,
      [&](int state, const Netlist& n, const spice::MnaMap& map,
          const std::vector<double>& x) {
        const char* outputs[3] = {"clk1", "clk2", "clk3"};
        for (int i = 0; i < 3; ++i)
          (state == 0 ? out.out_low : out.out_high)[i] =
              map.voltage(x, *n.find_node(outputs[i]));
        (state == 0 ? out.iddq_low : out.iddq_high) =
            -map.branch_current(x, "VDDD");
        (state == 0 ? out.iclk_low : out.iclk_high) =
            -map.branch_current(x, "VCLK");
      });
  return out;
}

macro::MeasurementLayout clockgen_measurement_layout() {
  macro::MeasurementLayout layout;
  layout.add("iddq_low", macro::MeasurementKind::kIddq);
  layout.add("iddq_high", macro::MeasurementKind::kIddq);
  layout.add("iclk_low", macro::MeasurementKind::kIinput);
  layout.add("iclk_high", macro::MeasurementKind::kIinput);
  return layout;
}

std::vector<double> clockgen_measurements(const ClockgenSolution& solution) {
  return {solution.iddq_low, solution.iddq_high, solution.iclk_low,
          solution.iclk_high};
}

macro::VoltageSignature classify_clockgen(const ClockgenSolution& faulty,
                                          const ClockgenSolution& nominal) {
  using macro::VoltageSignature;
  double worst = 0.0;
  bool logic_broken = false;
  for (int i = 0; i < 3; ++i) {
    const double dl = std::fabs(faulty.out_low[i] - nominal.out_low[i]);
    const double dh = std::fabs(faulty.out_high[i] - nominal.out_high[i]);
    worst = std::max({worst, dl, dh});
    const bool flip_low =
        (faulty.out_low[i] > kVddd / 2) != (nominal.out_low[i] > kVddd / 2);
    const bool flip_high =
        (faulty.out_high[i] > kVddd / 2) != (nominal.out_high[i] > kVddd / 2);
    logic_broken = logic_broken || flip_low || flip_high;
  }
  if (logic_broken) return VoltageSignature::kOutputStuckAt;  // clocks dead
  return worst > 0.05 ? VoltageSignature::kClockValue
                      : VoltageSignature::kNoDeviation;
}

}  // namespace dot::flashadc

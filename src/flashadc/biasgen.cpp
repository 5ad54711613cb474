#include "flashadc/biasgen.hpp"

#include <algorithm>
#include <cmath>

#include "flashadc/tech.hpp"
#include "layout/synth.hpp"

namespace dot::flashadc {

using spice::MosType;
using spice::Netlist;
using spice::SourceSpec;

Netlist build_biasgen_netlist() {
  Netlist n;
  const auto nm = nmos_model();
  const auto pm = pmos_model();
  const double L2 = 2e-6;

  // Reference branch: the resistor to ground sets the master current
  // through the diode-connected PMOS, I = v(pb) / RB1.
  n.add_mosfet("MPM", MosType::kPmos, "pb", "pb", "vdda", "vdda", 8e-6, L2,
               pm);
  n.add_resistor("RB1", "pb", "0", 60e3);

  // Branch 1: mirrored current into a diode-connected NMOS -> vbn.
  n.add_mosfet("MP5", MosType::kPmos, "vbn", "pb", "vdda", "vdda", 8e-6, L2,
               pm);
  n.add_mosfet("MD1", MosType::kNmos, "vbn", "vbn", "0", "0", 12e-6, L2, nm);

  // Branch 2: larger mirrored current into a smaller diode -> slightly
  // higher cascode bias vbc.
  n.add_mosfet("MP6", MosType::kPmos, "vbc", "pb", "vdda", "vdda", 12e-6, L2,
               pm);
  n.add_mosfet("MD2", MosType::kNmos, "vbc", "vbc", "0", "0", 10e-6, L2, nm);

  // Decoupling capacitors on the bias lines.
  n.add_capacitor("CB1", "vbn", "0", 2e-12);
  n.add_capacitor("CB2", "vbc", "0", 2e-12);
  return n;
}

std::vector<std::string> biasgen_pins() { return {"vbn", "vbc", "vdda", "0"}; }

layout::CellLayout build_biasgen_layout() {
  layout::SynthOptions opt;
  opt.vdd_net = "vdda";
  opt.pins = biasgen_pins();
  return layout::synthesize_layout(build_biasgen_netlist(), "biasgen", opt);
}

macro::MacroCell build_biasgen_macro() {
  return macro::MacroCell("biasgen", build_biasgen_netlist(),
                          build_biasgen_layout(), biasgen_pins(), 1);
}

namespace {

Netlist driven_biasgen(const Netlist& macro_netlist, int /*state*/) {
  Netlist n = macro_netlist;
  n.add_vsource("VDDA", "vdda", "0", SourceSpec::dc(kVdda));
  // Comparator-array load: 256 tail gates draw no DC current, but the
  // distribution lines have leakage-scale loading.
  n.add_resistor("RLOAD1", "vbn", "0", 5e6);
  n.add_resistor("RLOAD2", "vbc", "0", 5e6);
  return n;
}

}  // namespace

DcBench biasgen_dc_bench() { return {1, driven_biasgen}; }

BiasgenSolution solve_biasgen(const Netlist& macro_netlist,
                              const DcContext* context) {
  BiasgenSolution out;
  out.converged = solve_dc(
      biasgen_dc_bench(), macro_netlist, context,
      [&](int, const Netlist& n, const spice::MnaMap& map,
          const std::vector<double>& x) {
        out.vbn = map.voltage(x, *n.find_node("vbn"));
        out.vbc = map.voltage(x, *n.find_node("vbc"));
        out.ivdd = -map.branch_current(x, "VDDA");
      });
  return out;
}

macro::MeasurementLayout biasgen_measurement_layout() {
  macro::MeasurementLayout layout;
  layout.add("ivdd", macro::MeasurementKind::kIVdd);
  return layout;
}

std::vector<double> biasgen_measurements(const BiasgenSolution& solution) {
  return {solution.ivdd};
}

macro::VoltageSignature classify_biasgen(const BiasgenSolution& faulty,
                                         const BiasgenSolution& nominal) {
  using macro::VoltageSignature;
  const double dev = std::max(std::fabs(faulty.vbn - nominal.vbn),
                              std::fabs(faulty.vbc - nominal.vbc));
  if (dev > 0.15) return VoltageSignature::kOutputStuckAt;
  return dev > 0.03 ? VoltageSignature::kMixed
                    : VoltageSignature::kNoDeviation;
}

}  // namespace dot::flashadc

#include "flashadc/decoder.hpp"

#include "flashadc/tech.hpp"
#include "layout/synth.hpp"

namespace dot::flashadc {

using spice::MosType;
using spice::Netlist;
using spice::SourceSpec;

namespace {

void add_inverter(Netlist& n, const std::string& name, const std::string& in,
                  const std::string& out) {
  const double L = 1e-6;
  n.add_mosfet("MP_" + name, MosType::kPmos, out, in, "vddd", "vddd", 8e-6, L,
               pmos_model());
  n.add_mosfet("MN_" + name, MosType::kNmos, out, in, "0", "0", 4e-6, L,
               nmos_model());
}

/// row = a AND (NOT b): NAND(a, bn) + inverter.
void add_edge_row(Netlist& n, const std::string& name, const std::string& a,
                  const std::string& b_inverted, const std::string& out) {
  const double L = 1e-6;
  const std::string x = name + "_n";
  n.add_mosfet("MPA_" + name, MosType::kPmos, x, a, "vddd", "vddd", 8e-6, L,
               pmos_model());
  n.add_mosfet("MPB_" + name, MosType::kPmos, x, b_inverted, "vddd", "vddd",
               8e-6, L, pmos_model());
  n.add_mosfet("MNA_" + name, MosType::kNmos, x, a, name + "_s", "0", 8e-6, L,
               nmos_model());
  n.add_mosfet("MNB_" + name, MosType::kNmos, name + "_s", b_inverted, "0",
               "0", 8e-6, L, nmos_model());
  add_inverter(n, name + "_o", x, out);
}

}  // namespace

Netlist build_decoder_netlist() {
  Netlist n;
  // Inverted thermometer inputs.
  for (int i = 1; i <= kDecoderSliceInputs; ++i) {
    add_inverter(n, "inv_t" + std::to_string(i), "t" + std::to_string(i),
                 "tn" + std::to_string(i));
  }
  // Edge rows: row_i = t_i AND NOT t_{i+1}; the top row pairs with the
  // next slice's first input, modelled here by a static low.
  add_edge_row(n, "row0", "t1", "tn2", "r0");
  add_edge_row(n, "row1", "t2", "tn3", "r1");
  add_edge_row(n, "row2", "t3", "tn4", "r2");
  // Top row of the slice: r3 = t4 AND NOT(next slice t1); the carry
  // input is wired to an inverter fed by t4 of the next slice, which we
  // model as an always-low input "t5" held by a pulldown in the bench.
  add_edge_row(n, "row3", "t4", "tn5", "r3");
  add_inverter(n, "inv_t5", "t5", "tn5");
  return n;
}

std::vector<std::string> decoder_pins() {
  return {"t1", "t2", "t3", "t4", "t5", "r0", "r1", "r2", "r3", "vddd", "0"};
}

layout::CellLayout build_decoder_layout() {
  layout::SynthOptions opt;
  opt.vdd_net = "vddd";
  opt.pins = decoder_pins();
  return layout::synthesize_layout(build_decoder_netlist(), "decoder", opt);
}

macro::MacroCell build_decoder_macro() {
  return macro::MacroCell("decoder", build_decoder_netlist(),
                          build_decoder_layout(), decoder_pins(),
                          kDecoderSlices);
}

bool decoder_row_expected(int vector, int row) {
  // vector = number of thermometer inputs high (0..4). Row i fires when
  // t_{i+1} is the topmost high input.
  return vector == row + 1;
}

namespace {

Netlist driven_decoder(const Netlist& macro_netlist, int vec) {
  Netlist n = macro_netlist;
  n.add_vsource("VDDD", "vddd", "0", SourceSpec::dc(kVddd));
  for (int i = 1; i <= kDecoderSliceInputs; ++i) {
    const double level = i <= vec ? kVddd : 0.0;
    n.add_vsource("VT" + std::to_string(i), "tsrc" + std::to_string(i),
                  "0", SourceSpec::dc(level));
    n.add_resistor("RT" + std::to_string(i), "tsrc" + std::to_string(i),
                   "t" + std::to_string(i), 100.0);
  }
  // Next-slice carry held low.
  n.add_vsource("VT5", "tsrc5", "0", SourceSpec::dc(0.0));
  n.add_resistor("RT5", "tsrc5", "t5", 100.0);
  return n;
}

}  // namespace

DcBench decoder_dc_bench() { return {kDecoderSliceInputs + 1, driven_decoder}; }

DecoderSolution solve_decoder(const Netlist& macro_netlist,
                              const DcContext* context) {
  DecoderSolution out;
  out.converged = solve_dc(
      decoder_dc_bench(), macro_netlist, context,
      [&](int vec, const Netlist& n, const spice::MnaMap& map,
          const std::vector<double>& x) {
        const auto v = static_cast<std::size_t>(vec);
        for (int r = 0; r < 4; ++r)
          out.rows[v][static_cast<std::size_t>(r)] =
              map.voltage(x, *n.find_node("r" + std::to_string(r)));
        out.iddq[v] = -map.branch_current(x, "VDDD");
      });
  return out;
}

macro::MeasurementLayout decoder_measurement_layout() {
  macro::MeasurementLayout layout;
  for (int v = 0; v <= kDecoderSliceInputs; ++v)
    layout.add("iddq_v" + std::to_string(v), macro::MeasurementKind::kIddq);
  return layout;
}

std::vector<double> decoder_measurements(const DecoderSolution& solution) {
  return {solution.iddq.begin(), solution.iddq.end()};
}

macro::VoltageSignature classify_decoder(const DecoderSolution& faulty) {
  for (int v = 0; v <= kDecoderSliceInputs; ++v)
    for (int r = 0; r < 4; ++r)
      if ((faulty.rows[static_cast<std::size_t>(v)]
                      [static_cast<std::size_t>(r)] > kVddd / 2) !=
          decoder_row_expected(v, r))
        return macro::VoltageSignature::kOutputStuckAt;
  return macro::VoltageSignature::kNoDeviation;
}

}  // namespace dot::flashadc

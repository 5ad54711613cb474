// Applying the methodology to a user-defined macro: a class-AB output
// amplifier, the circuit family of Sachdev's earlier silicon study the
// paper builds on (its reference [6]).
//
// Demonstrates the pieces a library user combines for a new macro:
//   - netlist + synthesized layout with routing hints,
//   - defect campaign,
//   - a bespoke evaluator (here: DC sweep + quiescent current),
//   - a 3-sigma good-signature envelope from Monte-Carlo samples,
//   - per-class detection bookkeeping.
#include <cstdio>
#include <string>

#include "defect/simulate.hpp"
#include "fault/model.hpp"
#include "layout/synth.hpp"
#include "macro/envelope.hpp"
#include "spice/dc.hpp"
#include "spice/montecarlo.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

using namespace dot;

namespace {

/// Two-stage amplifier with a class-AB push-pull output.
spice::Netlist build_classab() {
  spice::MosModel nmos;
  spice::MosModel pmos = nmos;
  pmos.kp = 40e-6;
  pmos.vt0 = 0.75;

  spice::Netlist n;
  // Input differential pair with current-mirror load.
  n.add_mosfet("M1", spice::MosType::kNmos, "x1", "inp", "tail", "0", 20e-6,
               1e-6, nmos);
  n.add_mosfet("M2", spice::MosType::kNmos, "x2", "inn", "tail", "0", 20e-6,
               1e-6, nmos);
  n.add_mosfet("M3", spice::MosType::kPmos, "x1", "x1", "vdd", "vdd", 10e-6,
               1e-6, pmos);
  n.add_mosfet("M4", spice::MosType::kPmos, "x2", "x1", "vdd", "vdd", 10e-6,
               1e-6, pmos);
  n.add_mosfet("M5", spice::MosType::kNmos, "tail", "vb", "0", "0", 10e-6,
               1e-6, nmos);
  // Class-AB output stage biased by a level-shift resistor chain.
  n.add_mosfet("M6", spice::MosType::kPmos, "out", "x2", "vdd", "vdd", 40e-6,
               1e-6, pmos);
  n.add_resistor("RB", "x2", "xb", 20e3);
  n.add_mosfet("M7", spice::MosType::kNmos, "out", "xb", "0", "0", 20e-6,
               1e-6, nmos);
  n.add_capacitor("CC", "x2", "out", 2e-12);
  n.add_capacitor("CL", "out", "0", 5e-12);
  return n;
}

spice::Netlist with_bench(const spice::Netlist& amp, double vin) {
  // Unity-gain feedback: inn and out are one node.
  spice::Netlist n;
  n.append_renamed(amp, "", [](const std::string& net) {
    return net == "inn" ? std::string("out") : net;
  });
  n.add_vsource("VDD", "vdd", "0", spice::SourceSpec::dc(5.0));
  n.add_vsource("VB", "vb", "0", spice::SourceSpec::dc(1.0));
  n.add_vsource("VINP", "inp", "0", spice::SourceSpec::dc(vin));
  return n;
}

/// Evaluator: output voltages for a 3-point DC sweep + supply current.
std::vector<double> measure(const spice::Netlist& amp, bool* ok) {
  std::vector<double> values;
  *ok = true;
  for (double vin : {1.5, 2.5, 3.5}) {
    const spice::Netlist bench = with_bench(amp, vin);
    try {
      const spice::MnaMap map(bench);
      const auto op = spice::dc_operating_point(bench, map);
      values.push_back(map.voltage(op.x, *bench.find_node("out")));
      values.push_back(-map.branch_current(op.x, "VDD"));
    } catch (const util::ConvergenceError&) {
      *ok = false;
      values.insert(values.end(), {0.0, 0.0});
    }
  }
  return values;
}

}  // namespace

int main() {
  const spice::Netlist amp = build_classab();

  layout::SynthOptions synth;
  synth.pins = {"inp", "inn", "out", "vb", "vdd", "0"};
  synth.track_order = {"x1", "x2"};  // route the gain nodes adjacently
  const layout::CellLayout cell =
      layout::synthesize_layout(amp, "classab", synth);
  std::printf("class-AB amplifier: %zu devices, layout %.0f um^2\n",
              amp.devices().size(), cell.area());

  defect::CampaignOptions campaign;
  campaign.defect_count = 200000;
  campaign.seed = 9;
  campaign.vdd_net = "vdd";
  const auto defects = defect::run_campaign(cell, campaign);
  std::printf("%zu faults in %zu classes\n", defects.faults_extracted,
              defects.classes.size());

  // Good-signature envelope over process spread.
  macro::MeasurementLayout layout;
  for (const char* point : {"lo", "mid", "hi"}) {
    layout.add(std::string("vout_") + point, macro::MeasurementKind::kOther);
    layout.add(std::string("ivdd_") + point, macro::MeasurementKind::kIVdd);
  }
  spice::ProcessSpread spread;
  util::Rng rng(11);
  std::vector<std::vector<double>> samples;
  for (int s = 0; s < 25; ++s) {
    const auto env = spice::sample_environment(spread, rng);
    bool ok = false;
    auto sample = measure(spice::perturb(amp, spread, env, {}, rng), &ok);
    if (ok) samples.push_back(std::move(sample));
  }
  macro::BandPolicy policy;
  policy.abs_floor = 2e-6;
  const auto envelope = macro::build_envelope(layout, samples, policy);

  // Voltage detection: output escapes its band; current: IVdd flag.
  std::size_t w_voltage = 0, w_current = 0, w_total = 0, w_detected = 0;
  fault::FaultModelOptions models;
  models.vdd_net = "vdd";
  for (const auto& cls : defects.classes) {
    w_total += cls.count;
    bool voltage = false, current = false;
    for (int variant = 0;
         variant < fault::model_variant_count(cls.representative);
         ++variant) {
      bool ok = false;
      const auto faulty = measure(
          fault::apply_fault(amp, cls.representative, models, variant), &ok);
      if (!ok) {
        voltage = true;
        continue;
      }
      for (std::size_t d : envelope.space().violations(faulty)) {
        if (envelope.layout().kinds[d] == macro::MeasurementKind::kIVdd)
          current = true;
        else
          voltage = true;
      }
    }
    if (voltage) w_voltage += cls.count;
    if (current) w_current += cls.count;
    if (voltage || current) w_detected += cls.count;
  }

  util::TextTable table({"detection", "% of faults"});
  auto pct = [&](std::size_t w) {
    return util::pct(static_cast<double>(w) / static_cast<double>(w_total));
  };
  table.add_row({"DC voltage test", pct(w_voltage)});
  table.add_row({"IVdd current test", pct(w_current)});
  table.add_row({"combined", pct(w_detected)});
  std::printf("\n%s\n", table.str().c_str());
  std::printf("paper ref [6] found the same pattern on silicon: simple DC,\n"
              "AC and current measurements catch most spot defects in a\n"
              "class-AB amplifier, with a residue of parametric escapes.\n");
  return 0;
}

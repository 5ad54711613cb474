#include "flashadc/ladder.hpp"

#include <algorithm>
#include <cmath>

#include "flashadc/behavioral.hpp"
#include "flashadc/tech.hpp"
#include "layout/synth.hpp"
#include "util/error.hpp"

namespace dot::flashadc {

using spice::Netlist;
using spice::SourceSpec;

std::string ladder_tap_net(int index) {
  if (index < 0 || index >= kLevels)
    throw util::InvalidInputError("ladder_tap_net: index out of range");
  return "tap" + std::to_string(index);
}

namespace {

/// Coarse node i (0..16); node 0 is vrefm, node 16 is vrefp. The fine
/// taps subdivide each segment: tap index i*16+j sits j fine resistors
/// above coarse node i. Tap 0 coincides with coarse node 0 level, so we
/// wire fine node j of segment i as taps i*16+j, with tap i*16+0 tied to
/// the coarse node through the first fine resistor's lower end.
std::string coarse_net(int i) {
  if (i == 0) return "vrefm";
  if (i == kCoarseSegments) return "vrefp";
  return "c" + std::to_string(i);
}

}  // namespace

Netlist build_ladder_netlist() {
  Netlist n;
  // Coarse string.
  for (int i = 0; i < kCoarseSegments; ++i) {
    n.add_resistor("RC" + std::to_string(i), coarse_net(i), coarse_net(i + 1),
                   kCoarseOhms);
  }
  // Fine strings: segment i spans coarse node i to i+1 with 16 resistors
  // whose intermediate nodes are the taps. The first fine node of the
  // segment is tap i*16 (so taps run 0..255 bottom to top).
  for (int i = 0; i < kCoarseSegments; ++i) {
    for (int j = 0; j < kFinePerSegment; ++j) {
      const std::string lower =
          j == 0 ? coarse_net(i) : ladder_tap_net(i * kFinePerSegment + j - 1)
          ;
      const std::string upper = j == kFinePerSegment - 1
                                    ? coarse_net(i + 1)
                                    : ladder_tap_net(i * kFinePerSegment + j);
      n.add_resistor("RF" + std::to_string(i) + "_" + std::to_string(j),
                     lower, upper, kFineOhms);
    }
  }
  return n;
}

std::vector<std::string> ladder_pins() { return {"vrefp", "vrefm"}; }

layout::CellLayout build_ladder_layout() {
  layout::SynthOptions opt;
  opt.vdd_net = "vdda";  // no supply net in this macro
  opt.pins = ladder_pins();
  return layout::synthesize_layout(build_ladder_netlist(), "ladder", opt);
}

macro::MacroCell build_ladder_macro() {
  return macro::MacroCell("ladder", build_ladder_netlist(),
                          build_ladder_layout(), ladder_pins(), 1);
}

namespace {

Netlist driven_ladder(const Netlist& macro_netlist, int /*state*/) {
  Netlist n = macro_netlist;
  n.add_vsource("VREFP", "vrefp", "0", SourceSpec::dc(kVrefHi));
  n.add_vsource("VREFM", "vrefm", "0", SourceSpec::dc(kVrefLo));
  return n;
}

}  // namespace

DcBench ladder_dc_bench() { return {1, driven_ladder}; }

LadderSolution solve_ladder(const Netlist& macro_netlist,
                            const DcContext* context) {
  LadderSolution out;
  out.converged = solve_dc(
      ladder_dc_bench(), macro_netlist, context,
      [&](int, const Netlist& n, const spice::MnaMap& map,
          const std::vector<double>& x) {
        out.taps.resize(kLevels);
        for (int i = 0; i < kLevels; ++i) {
          // Tap i*16+15 is the coarse node itself (the fine string ends
          // on it); the other taps are fine-ladder nodes. Node splits
          // keep the original name on the pin side, so the lookup stays
          // valid under open faults.
          const std::string net = (i % kFinePerSegment == kFinePerSegment - 1)
                                      ? coarse_net(i / kFinePerSegment + 1)
                                      : ladder_tap_net(i);
          const auto node = n.find_node(net);
          out.taps[static_cast<std::size_t>(i)] =
              node ? map.voltage(x, *node) : 0.0;
        }
        out.iref_p = -map.branch_current(x, "VREFP");
        out.iref_m = -map.branch_current(x, "VREFM");
      });
  return out;
}

macro::MeasurementLayout ladder_measurement_layout() {
  macro::MeasurementLayout layout;
  layout.add("iref_p", macro::MeasurementKind::kIinput);
  layout.add("iref_m", macro::MeasurementKind::kIinput);
  return layout;
}

std::vector<double> ladder_measurements(const LadderSolution& solution) {
  return {solution.iref_p, solution.iref_m};
}

macro::VoltageSignature classify_ladder(const LadderSolution& faulty,
                                        const LadderSolution& nominal) {
  using macro::VoltageSignature;
  double worst = 0.0;
  for (std::size_t i = 0; i < nominal.taps.size(); ++i)
    worst = std::max(worst, std::fabs(faulty.taps[i] - nominal.taps[i]));
  if (has_missing_code(FlashAdcModel(faulty.taps)))
    return worst > 10 * lsb() ? VoltageSignature::kOutputStuckAt
                              : VoltageSignature::kOffset;
  return worst > lsb() / 2 ? VoltageSignature::kMixed
                           : VoltageSignature::kNoDeviation;
}

}  // namespace dot::flashadc

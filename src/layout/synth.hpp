// Procedural layout synthesis: builds a plausible row-based cell layout
// (rails, device rows, a central metal1 routing channel, metal2 risers)
// from a macro netlist.
//
// The paper analyzed proprietary Philips layouts; we reproduce the
// *structural* properties that drive its results instead:
//  - nets routed as long parallel trunks, so neighbouring tracks short
//    with a likelihood proportional to shared run length;
//  - explicit track ordering hints, so the DfT experiment "separate two
//    bias lines carrying nearly identical signals" is expressible;
//  - contacts, vias and gate regions in realistic numbers, so pinhole
//    and extra-contact statistics have sites to land on.
#pragma once

#include <string>
#include <vector>

#include "layout/cell.hpp"
#include "layout/layers.hpp"
#include "spice/netlist.hpp"

namespace dot::layout {

struct SynthOptions {
  TechRules rules;
  /// Net treated as the positive supply rail (top of the cell).
  std::string vdd_net = "vdd";
  /// Nets exposed at the cell edge; their trunks span the full width.
  std::vector<std::string> pins;
  /// Nets listed here get the first routing-channel tracks, adjacent to
  /// each other in exactly this order. Remaining nets follow in order of
  /// first use. This is the knob the bias-line DfT measure turns.
  std::vector<std::string> track_order;
  /// Horizontal placement slot per device.
  double slot_width = 20.0;
};

/// Builds the layout for every physical device in the netlist (MOSFETs,
/// resistors, capacitors). Sources are considered test-bench elements
/// and are skipped. Throws InvalidInputError if a
/// net label check fails afterwards.
CellLayout synthesize_layout(const spice::Netlist& netlist,
                             const std::string& cell_name,
                             const SynthOptions& options);

}  // namespace dot::layout

// Design-rule checking for cell layouts: minimum width, same-layer
// spacing between different nets, and cut (contact/via) connectivity.
// Transistor channels -- active-to-active gaps covered by gate poly --
// are recognized and exempted from the spacing rule.
//
// Used both as a library feature and as a self-check of the procedural
// layout synthesizer (the property suite runs it on random cells).
#pragma once

#include <string>
#include <vector>

#include "layout/cell.hpp"
#include "layout/layers.hpp"

namespace dot::layout {

enum class DrcRule {
  kMinWidth,
  kSpacing,
  kDanglingCut,  ///< Contact/via not bridging two conducting layers.
};

struct DrcViolation {
  DrcRule rule = DrcRule::kMinWidth;
  Layer layer = Layer::kMetal1;
  Rect at;               ///< Offending shape or the gap region.
  std::string detail;    ///< Human-readable description.
};

/// Runs the width, spacing and cut checks under the default TechRules;
/// returns all violations (empty = clean). Spacing applies only between
/// shapes of different nets (same-net shapes may abut or overlap
/// freely).
std::vector<DrcViolation> run_drc(const CellLayout& cell);

std::string drc_report(const std::vector<DrcViolation>& violations);

}  // namespace dot::layout

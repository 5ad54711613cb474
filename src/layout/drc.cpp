#include "layout/drc.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dot::layout {
namespace {

double min_width_rule(const TechRules& rules, Layer layer) {
  switch (layer) {
    case Layer::kMetal1:
    case Layer::kMetal2:
      return rules.metal_width;
    case Layer::kPoly:
      return rules.poly_width;
    case Layer::kActive:
      return rules.active_width;
    case Layer::kContact:
      return rules.contact_size;
    case Layer::kVia1:
      return rules.via_size;
    case Layer::kNWell:
      return 0.0;
  }
  return 0.0;
}

double spacing_rule(const TechRules& rules, Layer layer) {
  switch (layer) {
    case Layer::kMetal1:
    case Layer::kMetal2:
      return rules.metal_space;
    case Layer::kPoly:
      return rules.poly_space;
    case Layer::kActive:
      return rules.active_width;  // use width as the diffusion space
    default:
      return 0.0;  // cut layers: no spacing rule here
  }
}

/// Gap between two disjoint rectangles (Chebyshev-style: the larger of
/// the axis gaps; 0 if they overlap in both axes).
double rect_gap(const Rect& a, const Rect& b, Rect* gap_region) {
  const double dx = std::max({a.x_lo - b.x_hi, b.x_lo - a.x_hi, 0.0});
  const double dy = std::max({a.y_lo - b.y_hi, b.y_lo - a.y_hi, 0.0});
  if (gap_region != nullptr) {
    gap_region->x_lo = std::max(std::min(a.x_hi, b.x_hi),
                                std::min(a.x_lo, b.x_lo));
    gap_region->x_hi = std::min(std::max(a.x_lo, b.x_lo),
                                std::max(a.x_hi, b.x_hi));
    if (gap_region->x_hi < gap_region->x_lo)
      std::swap(gap_region->x_lo, gap_region->x_hi);
    gap_region->y_lo = std::max(std::min(a.y_hi, b.y_hi),
                                std::min(a.y_lo, b.y_lo));
    gap_region->y_hi = std::min(std::max(a.y_lo, b.y_lo),
                                std::max(a.y_hi, b.y_hi));
    if (gap_region->y_hi < gap_region->y_lo)
      std::swap(gap_region->y_lo, gap_region->y_hi);
  }
  return std::max(dx, dy);
}

bool cut_connects(Layer cut, Layer conductor) {
  if (cut == Layer::kContact)
    return conductor == Layer::kMetal1 || conductor == Layer::kPoly ||
           conductor == Layer::kActive;
  if (cut == Layer::kVia1)
    return conductor == Layer::kMetal1 || conductor == Layer::kMetal2;
  return false;
}

}  // namespace

std::vector<DrcViolation> run_drc(const CellLayout& cell) {
  const TechRules rules;
  std::vector<DrcViolation> out;
  const auto& shapes = cell.shapes();

  for (const auto& shape : shapes) {
    const double rule = min_width_rule(rules, shape.layer);
    const double w = std::min(shape.rect.width(), shape.rect.height());
    if (w + 1e-9 < rule) {
      out.push_back({DrcRule::kMinWidth, shape.layer, shape.rect,
                     layer_name(shape.layer) + " width " +
                         std::to_string(w) + " < " +
                         std::to_string(rule) + " (net " + shape.net +
                         ")"});
    }
  }

  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto& a = shapes[i];
    if (!is_conducting(a.layer)) continue;
    const double rule = spacing_rule(rules, a.layer);
    if (rule <= 0.0) continue;
    for (std::size_t j = i + 1; j < shapes.size(); ++j) {
      const auto& b = shapes[j];
      if (b.layer != a.layer || b.net == a.net) continue;
      Rect gap_region;
      const double gap = rect_gap(a.rect, b.rect, &gap_region);
      if (gap + 1e-9 >= rule) continue;
      if (gap <= 0.0) continue;  // overlap = short, extraction's job
      // Transistor exemption: an active-to-active gap fully bridged
      // by gate poly is a channel, not a spacing violation.
      if (a.layer == Layer::kActive &&
          !cell.shapes_hit(Layer::kPoly, gap_region).empty())
        continue;
      out.push_back({DrcRule::kSpacing, a.layer, gap_region,
                     layer_name(a.layer) + " spacing " +
                         std::to_string(gap) + " < " +
                         std::to_string(rule) + " between nets " + a.net +
                         " and " + b.net});
    }
  }

  for (const auto& shape : shapes) {
    if (!is_cut(shape.layer)) continue;
    int layers_touched = 0;
    for (Layer conductor : {Layer::kActive, Layer::kPoly, Layer::kMetal1,
                            Layer::kMetal2}) {
      if (!cut_connects(shape.layer, conductor)) continue;
      if (!cell.shapes_hit(conductor, shape.rect).empty())
        ++layers_touched;
    }
    if (layers_touched < 2) {
      // Substrate/well taps legitimately contact only metal1.
      const bool substrate_tap =
          shape.layer == Layer::kContact &&
          !cell.shapes_hit(Layer::kMetal1, shape.rect).empty();
      if (!substrate_tap)
        out.push_back({DrcRule::kDanglingCut, shape.layer, shape.rect,
                       layer_name(shape.layer) +
                           " does not bridge two layers (net " +
                           shape.net + ")"});
    }
  }
  return out;
}

std::string drc_report(const std::vector<DrcViolation>& violations) {
  std::ostringstream os;
  os << violations.size() << " DRC violation(s)\n";
  for (const auto& v : violations)
    os << "  [" << v.at.str() << "] " << v.detail << '\n';
  return os.str();
}

}  // namespace dot::layout

#include "defect/analyze.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <map>
#include <span>
#include <tuple>

#include "layout/extract.hpp"
#include "util/error.hpp"

namespace dot::defect {

using fault::BridgeMaterial;
using fault::CircuitFault;
using fault::FaultKind;
using layout::CellLayout;
using layout::Layer;
using layout::Point;
using layout::Rect;
using layout::Shape;

Defect sample_defect(const DefectStatistics& stats, const Rect& area,
                     util::Rng& rng) {
  return DefectSampler(stats, area)(rng);
}

DefectSampler::DefectSampler(const DefectStatistics& stats, const Rect& area)
    : type_(stats.weights),
      area_(area),
      size_(stats.size_min, stats.size_max, stats.size_exponent) {}

Defect DefectSampler::operator()(util::Rng& rng) const {
  const SpotDraw spot = draw(rng);
  return {spot.type, spot.center, size_of(spot.size_variate)};
}

SpotDraw DefectSampler::draw(util::Rng& rng) const {
  SpotDraw d;
  d.type = static_cast<DefectType>(type_(rng));
  d.center = {rng.uniform(area_.x_lo, area_.x_hi),
              rng.uniform(area_.y_lo, area_.y_hi)};
  d.size_variate = rng.uniform();
  return d;
}

namespace {

BridgeMaterial material_of(Layer layer) {
  switch (layer) {
    case Layer::kMetal1:
    case Layer::kMetal2:
      return BridgeMaterial::kMetal;
    case Layer::kPoly:
      return BridgeMaterial::kPoly;
    case Layer::kActive:
      return BridgeMaterial::kDiffusion;
    default:
      return BridgeMaterial::kNone;
  }
}

/// Axis-aligned subtraction: r minus cut, as up to four rectangles. The
/// top/bottom strips are widened by a hair so that an L-shaped remnant
/// stays connected under the open-interval intersection test.
std::vector<Rect> subtract(const Rect& r, const Rect& cut) {
  if (!r.intersects(cut)) return {r};
  std::vector<Rect> out;
  constexpr double kEps = 0.01;
  if (cut.x_lo > r.x_lo)
    out.push_back(Rect{r.x_lo, r.y_lo, cut.x_lo, r.y_hi});
  if (cut.x_hi < r.x_hi)
    out.push_back(Rect{cut.x_hi, r.y_lo, r.x_hi, r.y_hi});
  const double strip_lo = std::max(r.x_lo, cut.x_lo - kEps);
  const double strip_hi = std::min(r.x_hi, cut.x_hi + kEps);
  if (cut.y_lo > r.y_lo && strip_hi > strip_lo)
    out.push_back(Rect{strip_lo, r.y_lo, strip_hi, cut.y_lo});
  if (cut.y_hi < r.y_hi && strip_hi > strip_lo)
    out.push_back(Rect{strip_lo, cut.y_hi, strip_hi, r.y_hi});
  std::erase_if(out, [](const Rect& p) { return p.empty(); });
  return out;
}

/// The harmless-size search looks for different-net pairs closer than
/// this (um). A layer with no closer pair gets the cap as its gap, which
/// is still a bound; the cap sits above the metal (1.2 um) and poly
/// (1.0 um) spacing rules, where most layers' gaps are.
constexpr double kGapSearchCap = 2.0;

/// Smallest L-inf gap between two of `rects` with different net ids
/// (`nets[i]` is rects[i]'s), or `cap` when no pair is closer than
/// `cap`. The rectangles are indexed grown by a hair over cap / 2 on
/// each side, so two whose exact gap is below the cap overlap when
/// grown, even after rounding, and share a run of bins. A pair is
/// compared only in the first bin of that run (the larger of the two
/// first columns, then of the two first rows), so every close pair is
/// compared once, and long parallel wires once rather than in every
/// bin they cross.
double min_net_gap(const std::vector<Rect>& rects, const std::vector<int>& nets,
                   double reach, double cap) {
  if (rects.size() < 2) return cap;
  const double grow = 0.5 * cap + 4.0 * DBL_EPSILON * (reach + cap);
  std::vector<Rect> grown;
  grown.reserve(rects.size());
  for (const Rect& r : rects) grown.push_back(r.expanded(grow));
  const layout::RectIndex index(grown);
  std::vector<layout::RectIndex::Range> bins;
  bins.reserve(grown.size());
  for (const Rect& r : grown) bins.push_back(index.range(r));

  double gap = cap;
  for (int by = 0; by < index.bins_y(); ++by) {
    for (int bx = 0; bx < index.bins_x(); ++bx) {
      const auto members = index.members(bx, by);
      for (std::size_t p : members) {
        if (bins[p].x0 != bx) continue;
        const Rect& r = rects[p];
        for (std::size_t q : members) {
          if (nets[q] == nets[p] || (bins[q].x0 == bx && q < p) ||
              std::max(bins[p].y0, bins[q].y0) != by)
            continue;
          const Rect& o = rects[q];
          gap = std::min(gap, std::max({o.x_lo - r.x_hi, r.x_lo - o.x_hi,
                                        o.y_lo - r.y_hi, r.y_lo - o.y_hi,
                                        0.0}));
          if (gap == 0.0) return 0.0;
        }
      }
    }
  }
  return gap;
}

}  // namespace

DefectAnalyzer::DefectAnalyzer(const CellLayout& cell,
                               AnalyzerOptions options)
    : cell_(cell), options_(std::move(options)) {
  bbox_ = cell.bounding_box().expanded(1.0);
  order_cols_ =
      std::max(1, static_cast<int>(bbox_.width() / kHitOrderBin));
  order_rows_ =
      std::max(1, static_cast<int>(bbox_.height() / kHitOrderBin));

  // Per-net shape and tap indexes.
  const auto& shapes = cell.shapes();
  std::map<std::string, int> net_of;
  auto net_slot = [&](const std::string& net) {
    auto [it, inserted] =
        net_of.emplace(net, static_cast<int>(net_names_.size()));
    if (inserted) {
      net_names_.push_back(net);
      net_shapes_.emplace_back();
      net_taps_.emplace_back();
    }
    return it->second;
  };
  for (std::size_t i = 0; i < shapes.size(); ++i)
    if (!shapes[i].net.empty())
      net_shapes_[static_cast<std::size_t>(net_slot(shapes[i].net))]
          .push_back(i);
  for (std::size_t t = 0; t < cell.taps().size(); ++t)
    net_taps_[static_cast<std::size_t>(net_slot(cell.taps()[t].net))]
        .push_back(t);
  shape_net_.reserve(shapes.size());
  for (const Shape& shape : shapes) {
    const auto it = net_of.find(shape.net);
    shape_net_.push_back(it == net_of.end() ? -1 : it->second);
  }

  // Spatial index: each layer's shapes, in shape order.
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    LayerShapes& l = layers_[static_cast<std::size_t>(shapes[i].layer)];
    l.rects.push_back(shapes[i].rect);
    l.shapes.push_back(i);
    l.nets.push_back(shape_net_[i]);
  }
  for (LayerShapes& l : layers_) l.index = layout::RectIndex(l.rects);

  // Harmless sizes: each extra-material layer's smallest gap between
  // nets, less a margin for the rounding of the gap and of the spot's
  // footprint (DESIGN.md section 8).
  const double reach = std::max({std::abs(bbox_.x_lo), std::abs(bbox_.x_hi),
                                 std::abs(bbox_.y_lo), std::abs(bbox_.y_hi)});
  for (const Layer layer :
       {Layer::kMetal1, Layer::kMetal2, Layer::kPoly, Layer::kActive}) {
    const LayerShapes& l = layers_[static_cast<std::size_t>(layer)];
    const double gap = min_net_gap(l.rects, l.nets, reach, kGapSearchCap);
    harmless_[static_cast<std::size_t>(layer)] =
        std::max(0.0, gap - 4.0 * DBL_EPSILON * (reach + gap));
  }
}

double DefectAnalyzer::harmless_below(DefectType type) const {
  switch (type) {
    case DefectType::kExtraMetal1:
      return harmless_[static_cast<std::size_t>(Layer::kMetal1)];
    case DefectType::kExtraMetal2:
      return harmless_[static_cast<std::size_t>(Layer::kMetal2)];
    case DefectType::kExtraPoly:
      return harmless_[static_cast<std::size_t>(Layer::kPoly)];
    case DefectType::kExtraActive:
      return harmless_[static_cast<std::size_t>(Layer::kActive)];
    default:
      return 0.0;
  }
}

std::pair<int, int> DefectAnalyzer::order_cell(const Rect& r) const {
  return {std::clamp(static_cast<int>((r.x_lo - bbox_.x_lo) / bbox_.width() *
                                      order_cols_),
                     0, order_cols_ - 1),
          std::clamp(static_cast<int>((r.y_lo - bbox_.y_lo) /
                                      bbox_.height() * order_rows_),
                     0, order_rows_ - 1)};
}

std::vector<std::size_t> DefectAnalyzer::shapes_hit(Layer layer,
                                                    const Rect& probe) const {
  const LayerShapes& l = layers_[static_cast<std::size_t>(layer)];
  std::vector<std::size_t> out;
  l.index.for_each_bin(probe, [&](std::span<const std::size_t> members) {
    for (std::size_t k : members)
      if (l.rects[k].intersects(probe) &&
          std::find(out.begin(), out.end(), k) == out.end())
        out.push_back(k);
  });
  if (out.size() > 1) {
    // Key each hit (row, column, index) by the first hit-order cell it
    // shares with the probe.
    const auto [probe_col, probe_row] = order_cell(probe);
    std::vector<std::tuple<int, int, std::size_t>> keyed;
    keyed.reserve(out.size());
    for (std::size_t k : out) {
      const auto [col, row] = order_cell(l.rects[k]);
      keyed.emplace_back(std::max(probe_row, row), std::max(probe_col, col),
                         k);
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t h = 0; h < out.size(); ++h) out[h] = std::get<2>(keyed[h]);
  }
  for (std::size_t& k : out) k = l.shapes[k];
  return out;
}

bool DefectAnalyzer::touches_two_nets(Layer layer, const Rect& probe) const {
  const LayerShapes& l = layers_[static_cast<std::size_t>(layer)];
  const layout::RectIndex::Range g = l.index.range(probe);
  bool seen = false;
  int first = 0;
  for (int by = g.y0; by <= g.y1; ++by) {
    for (int bx = g.x0; bx <= g.x1; ++bx) {
      for (std::size_t k : l.index.members(bx, by)) {
        if (!l.rects[k].intersects(probe)) continue;
        if (!seen) {
          seen = true;
          first = l.nets[k];
        } else if (l.nets[k] != first) {
          return true;
        }
      }
    }
  }
  return false;
}

std::optional<CircuitFault> DefectAnalyzer::analyze(
    const Defect& defect) const {
  switch (defect.type) {
    case DefectType::kExtraMetal1:
      return analyze_extra_material(defect, Layer::kMetal1);
    case DefectType::kExtraMetal2:
      return analyze_extra_material(defect, Layer::kMetal2);
    case DefectType::kExtraPoly:
      return analyze_extra_material(defect, Layer::kPoly);
    case DefectType::kExtraActive:
      return analyze_extra_material(defect, Layer::kActive);
    case DefectType::kMissingMetal1:
      return analyze_missing_material(defect, Layer::kMetal1);
    case DefectType::kMissingMetal2:
      return analyze_missing_material(defect, Layer::kMetal2);
    case DefectType::kMissingPoly:
      return analyze_missing_material(defect, Layer::kPoly);
    case DefectType::kMissingActive:
      return analyze_missing_material(defect, Layer::kActive);
    case DefectType::kExtraContact:
      return analyze_extra_cut(defect, Layer::kContact);
    case DefectType::kExtraVia:
      return analyze_extra_cut(defect, Layer::kVia1);
    case DefectType::kMissingContact:
      return analyze_missing_cut(defect, Layer::kContact);
    case DefectType::kMissingVia:
      return analyze_missing_cut(defect, Layer::kVia1);
    case DefectType::kGateOxidePinhole:
      return analyze_gate_oxide(defect);
    case DefectType::kThickOxidePinhole:
      return analyze_thick_oxide(defect);
    case DefectType::kJunctionPinhole:
      return analyze_junction(defect);
  }
  return std::nullopt;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_extra_material(
    const Defect& defect, Layer layer) const {
  // Most spots bridge nothing: settle those narrower than the layer's
  // net spacing by size alone, and the rest without collecting hits.
  if (defect.size < harmless_[static_cast<std::size_t>(layer)])
    return std::nullopt;
  const Rect foot = Rect::square(defect.center, defect.size);
  if (!touches_two_nets(layer, foot)) return std::nullopt;
  const auto hits = shapes_hit(layer, foot);
  std::vector<std::string> nets;
  for (std::size_t i : hits) {
    const auto& net = cell_.shapes()[i].net;
    if (std::find(nets.begin(), nets.end(), net) == nets.end())
      nets.push_back(net);
  }
  std::sort(nets.begin(), nets.end());

  if (layer == Layer::kActive) {
    // Extra diffusion under existing poly makes a parasitic transistor
    // instead of a hard short (VLASIC "new device"); bridging the source
    // and drain of one transistor next to its own gate is a "shorted
    // device".
    const auto poly_hits = shapes_hit(Layer::kPoly, foot);
    if (!poly_hits.empty()) {
      for (const auto& region : cell_.mos_regions()) {
        if (!region.channel.intersects(foot)) continue;
        const bool bridges_own_sd =
            std::find(nets.begin(), nets.end(), region.source_net) !=
                nets.end() &&
            std::find(nets.begin(), nets.end(), region.drain_net) !=
                nets.end();
        if (bridges_own_sd) {
          CircuitFault f;
          f.kind = FaultKind::kShortedDevice;
          f.device = region.device;
          return f;
        }
      }
      CircuitFault f;
      f.kind = FaultKind::kNewDevice;
      f.nets = {nets[0], nets[1]};
      f.gate_net = cell_.shapes()[poly_hits.front()].net;
      f.to_vdd = cell_.inside_nwell(defect.center);
      return f;
    }
  }

  CircuitFault f;
  f.kind = FaultKind::kShort;
  f.nets = std::move(nets);
  f.material = material_of(layer);
  return f;
}

std::optional<CircuitFault> DefectAnalyzer::open_fault_for(
    int net, const std::vector<std::size_t>& removed,
    const Rect& footprint) const {
  if (net < 0) return std::nullopt;
  const auto ni = static_cast<std::size_t>(net);
  const auto& shapes = cell_.shapes();

  // Build remnant geometry for this net: unaffected shapes stay whole,
  // affected conducting shapes shrink to their remnants, removed cuts
  // vanish entirely.
  std::vector<layout::Piece> pieces;
  for (std::size_t i : net_shapes_[ni]) {
    const Shape& s = shapes[i];
    const bool is_removed =
        std::find(removed.begin(), removed.end(), i) != removed.end();
    if (!is_removed) {
      pieces.push_back({s.rect, s.layer});
      continue;
    }
    if (layout::is_cut(s.layer)) continue;  // cut destroyed entirely
    for (const Rect& remnant : subtract(s.rect, footprint))
      pieces.push_back({remnant, s.layer});
  }
  layout::UnionFind uf = layout::connect_pieces(pieces);

  // Group taps by the component of a piece containing them.
  const auto& taps = cell_.taps();
  std::map<long, std::vector<std::size_t>> groups;
  for (std::size_t t : net_taps_[ni]) {
    long key = -1 - static_cast<long>(t);
    for (std::size_t p = 0; p < pieces.size(); ++p) {
      if (pieces[p].layer != taps[t].layer) continue;
      if (pieces[p].rect.contains(taps[t].at)) {
        key = static_cast<long>(uf.find(p));
        break;
      }
    }
    groups[key].push_back(t);
  }
  if (groups.size() < 2) return std::nullopt;

  // The side keeping the original node is the group holding the first
  // pin tap; without pins, the largest group.
  long keep_key = groups.begin()->first;
  bool keep_found = false;
  for (const auto& [key, tap_list] : groups) {
    for (std::size_t t : tap_list) {
      if (taps[t].device == "pin") {
        keep_key = key;
        keep_found = true;
        break;
      }
    }
    if (keep_found) break;
  }
  if (!keep_found) {
    std::size_t best = 0;
    for (const auto& [key, tap_list] : groups) {
      if (tap_list.size() > best) {
        best = tap_list.size();
        keep_key = key;
      }
    }
  }

  CircuitFault f;
  f.kind = FaultKind::kOpen;
  f.nets = {net_names_[ni]};
  for (const auto& [key, tap_list] : groups) {
    if (key == keep_key) continue;
    for (std::size_t t : tap_list)
      f.isolated_taps.push_back({taps[t].device, taps[t].terminal});
  }
  if (f.isolated_taps.empty()) return std::nullopt;
  // Canonical order for collapsing.
  std::sort(f.isolated_taps.begin(), f.isolated_taps.end(),
            [](const fault::TapRef& a, const fault::TapRef& b) {
              return std::tie(a.device, a.terminal) <
                     std::tie(b.device, b.terminal);
            });
  return f;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_missing_material(
    const Defect& defect, Layer layer) const {
  const Rect foot = Rect::square(defect.center, defect.size);
  const auto hits = shapes_hit(layer, foot);
  if (hits.empty()) return std::nullopt;

  // Collect affected nets; try each for a split, report the first.
  std::vector<int> nets;
  for (std::size_t i : hits)
    if (std::find(nets.begin(), nets.end(), shape_net_[i]) == nets.end())
      nets.push_back(shape_net_[i]);
  for (int net : nets) {
    std::vector<std::size_t> removed;
    for (std::size_t i : hits)
      if (shape_net_[i] == net) removed.push_back(i);
    if (auto f = open_fault_for(net, removed, foot)) return f;
  }
  return std::nullopt;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_missing_cut(
    const Defect& defect, Layer layer) const {
  const Rect foot = Rect::square(defect.center, defect.size);
  const auto hits = shapes_hit(layer, foot);
  std::vector<std::size_t> removed;
  std::vector<int> nets;
  for (std::size_t i : hits) {
    // A cut is destroyed when the defect blankets its centre.
    if (!foot.contains(cell_.shapes()[i].rect.center())) continue;
    removed.push_back(i);
    if (std::find(nets.begin(), nets.end(), shape_net_[i]) == nets.end())
      nets.push_back(shape_net_[i]);
  }
  for (int net : nets) {
    std::vector<std::size_t> net_removed;
    for (std::size_t i : removed)
      if (shape_net_[i] == net) net_removed.push_back(i);
    if (auto f = open_fault_for(net, net_removed, foot)) return f;
  }
  return std::nullopt;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_extra_cut(
    const Defect& defect, Layer cut_layer) const {
  const Rect foot = Rect::square(defect.center, defect.size);
  const Layer upper = Layer::kMetal1;
  const auto upper_hits = shapes_hit(upper, foot);
  if (upper_hits.empty()) return std::nullopt;

  std::vector<Layer> lowers;
  if (cut_layer == Layer::kContact)
    lowers = {Layer::kPoly, Layer::kActive};
  else
    lowers = {Layer::kMetal2};

  std::vector<std::string> nets;
  auto add_net = [&](const std::string& net) {
    if (std::find(nets.begin(), nets.end(), net) == nets.end())
      nets.push_back(net);
  };
  for (std::size_t ui : upper_hits) {
    const Shape& u = cell_.shapes()[ui];
    for (Layer lower : lowers) {
      for (std::size_t li : shapes_hit(lower, foot)) {
        if (shape_net_[li] == shape_net_[ui]) continue;
        const Shape& l = cell_.shapes()[li];
        // The spurious cut must land where the two layers overlap.
        const Rect overlap =
            u.rect.intersection(l.rect).intersection(foot);
        if (overlap.empty()) continue;
        add_net(u.net);
        add_net(l.net);
      }
    }
  }
  if (nets.size() < 2) return std::nullopt;
  std::sort(nets.begin(), nets.end());
  CircuitFault f;
  f.kind = FaultKind::kExtraContact;
  f.nets = std::move(nets);
  f.material = BridgeMaterial::kContact;
  return f;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_gate_oxide(
    const Defect& defect) const {
  const auto* region = cell_.mos_region_at(defect.center);
  if (region == nullptr) return std::nullopt;
  CircuitFault f;
  f.kind = FaultKind::kGateOxidePinhole;
  f.device = region->device;
  f.material = BridgeMaterial::kOxide;
  return f;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_thick_oxide(
    const Defect& defect) const {
  // A pinhole is a point-like vertical leak: metal1 over poly/active, or
  // metal2 over metal1, at the defect location.
  const Rect probe = Rect::square(defect.center, 0.05);
  struct Pair {
    Layer upper, lower;
  };
  static constexpr Pair kPairs[] = {
      {Layer::kMetal1, Layer::kPoly},
      {Layer::kMetal1, Layer::kActive},
      {Layer::kMetal2, Layer::kMetal1},
  };
  for (const auto& pair : kPairs) {
    const auto uppers = shapes_hit(pair.upper, probe);
    if (uppers.empty()) continue;
    const auto lowers = shapes_hit(pair.lower, probe);
    for (std::size_t ui : uppers) {
      for (std::size_t li : lowers) {
        if (shape_net_[ui] == shape_net_[li]) continue;
        const Shape& u = cell_.shapes()[ui];
        const Shape& l = cell_.shapes()[li];
        CircuitFault f;
        f.kind = FaultKind::kThickOxidePinhole;
        f.nets = {std::min(u.net, l.net), std::max(u.net, l.net)};
        f.material = BridgeMaterial::kOxide;
        return f;
      }
    }
  }
  return std::nullopt;
}

std::optional<CircuitFault> DefectAnalyzer::analyze_junction(
    const Defect& defect) const {
  const Rect probe = Rect::square(defect.center, 0.05);
  const auto hits = shapes_hit(Layer::kActive, probe);
  if (hits.empty()) return std::nullopt;
  const std::string& net = cell_.shapes()[hits.front()].net;
  const bool to_vdd = cell_.inside_nwell(defect.center);
  // Leaking a rail into its own bulk is not a fault.
  if (!to_vdd && (net == "0" || net == "gnd")) return std::nullopt;
  if (to_vdd && net == options_.vdd_net) return std::nullopt;
  CircuitFault f;
  f.kind = FaultKind::kJunctionPinhole;
  f.nets = {net};
  f.to_vdd = to_vdd;
  f.material = BridgeMaterial::kOxide;
  return f;
}

}  // namespace dot::defect

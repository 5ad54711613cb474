// Defect-to-fault analysis: decides whether one sprinkled spot defect
// causes a circuit-level fault, and extracts that fault. This is the
// core of the VLASIC-equivalent catastrophic defect simulator.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "defect/statistics.hpp"
#include "fault/fault.hpp"
#include "layout/cell.hpp"
#include "layout/rect_index.hpp"
#include "util/rng.hpp"

namespace dot::defect {

/// One sprinkled spot defect.
struct Defect {
  DefectType type = DefectType::kExtraMetal1;
  layout::Point center;
  double size = 1.0;  ///< Spot diameter (modelled as a square).
};

/// Samples a defect: type by statistics weight, position uniform over
/// the cell bounding box, size by the power-law distribution.
Defect sample_defect(const DefectStatistics& stats, const layout::Rect& area,
                     util::Rng& rng);

/// A sampled spot before its size is computed: the size law's variate
/// stands in for the diameter until DefectSampler::size_of needs it.
struct SpotDraw {
  DefectType type = DefectType::kExtraMetal1;
  layout::Point center;
  double size_variate = 0.0;
};

/// sample_defect for many draws from one statistics set and area: the
/// type weights are checked and summed, and the size law's constant
/// terms computed, once, at construction (a sprinkle makes one).
/// Every draw is the one sample_defect makes from the same stream.
/// Keeps a view of stats.weights; `stats` must outlive the sampler.
class DefectSampler {
 public:
  DefectSampler(const DefectStatistics& stats, const layout::Rect& area);

  Defect operator()(util::Rng& rng) const;

  /// The draw operator() makes, from the same stream, with the size
  /// left as its variate: operator() is draw() plus size_of.
  SpotDraw draw(util::Rng& rng) const;
  /// The spot diameter a size variate gives.
  double size_of(double variate) const { return size_.at(variate); }
  /// Variates below this bound give diameters below `size` (a
  /// conservative bound: util::PowerLaw::variate_below).
  double variate_below(double size) const {
    return size_.variate_below(size);
  }

 private:
  util::WeightedPick type_;
  layout::Rect area_;
  util::PowerLaw size_;
};

struct AnalyzerOptions {
  std::string vdd_net = "vdd";
};

/// Precomputes spatial (one layout::RectIndex per layer) and per-net
/// indexes over one cell layout, then answers defect queries. The
/// analyzer borrows the cell; keep the cell alive while using it.
class DefectAnalyzer {
 public:
  DefectAnalyzer(const layout::CellLayout& cell, AnalyzerOptions options);

  /// Returns the circuit-level fault the defect causes, or nullopt when
  /// the defect is harmless (lands on empty area, same-net material,
  /// redundant wiring, ...).
  std::optional<fault::CircuitFault> analyze(const Defect& defect) const;

  /// Extra-material spots of a non-negative size below this bridge
  /// nothing, wherever they land: the size is the smallest L-inf gap
  /// between two shapes of different nets on the type's layer, less a
  /// rounding margin (DESIGN.md section 8). 0 for every other type.
  double harmless_below(DefectType type) const;

  const layout::CellLayout& cell() const { return cell_; }

 private:
  /// Side (um) of the square cells over bbox_ that set shapes_hit's
  /// order; a property of the reported faults, not of the index.
  static constexpr double kHitOrderBin = 5.0;
  /// Hit-order cell (column, row) of a rectangle's low corner.
  std::pair<int, int> order_cell(const layout::Rect& r) const;

  /// Shapes on `layer` intersecting `probe`, in hit order: by the
  /// hit-order cell where the probe first meets the shape (row-major),
  /// then by shape index. Callers read the order: a fault names the
  /// first hit's net, and nets are tried for an open in hit order.
  std::vector<std::size_t> shapes_hit(layout::Layer layer,
                                      const layout::Rect& probe) const;
  /// True when shapes on `layer` intersecting `probe` carry at least two
  /// distinct nets (the precondition of any bridge).
  bool touches_two_nets(layout::Layer layer,
                        const layout::Rect& probe) const;

  std::optional<fault::CircuitFault> analyze_extra_material(
      const Defect& defect, layout::Layer layer) const;
  std::optional<fault::CircuitFault> analyze_missing_material(
      const Defect& defect, layout::Layer layer) const;
  std::optional<fault::CircuitFault> analyze_missing_cut(
      const Defect& defect, layout::Layer layer) const;
  std::optional<fault::CircuitFault> analyze_extra_cut(
      const Defect& defect, layout::Layer cut_layer) const;
  std::optional<fault::CircuitFault> analyze_gate_oxide(
      const Defect& defect) const;
  std::optional<fault::CircuitFault> analyze_thick_oxide(
      const Defect& defect) const;
  std::optional<fault::CircuitFault> analyze_junction(
      const Defect& defect) const;

  /// Open extraction on net id `net` (no fault for -1) after
  /// deleting/shrinking material.
  std::optional<fault::CircuitFault> open_fault_for(
      int net, const std::vector<std::size_t>& removed,
      const layout::Rect& footprint) const;

  const layout::CellLayout& cell_;
  AnalyzerOptions options_;

  /// One layer's shapes in shape order, with their shape indices, net
  /// ids and the index over their rectangles.
  struct LayerShapes {
    std::vector<layout::Rect> rects;
    std::vector<std::size_t> shapes;
    std::vector<int> nets;
    layout::RectIndex index;
  };
  std::array<LayerShapes, layout::kLayerCount> layers_;
  layout::Rect bbox_;
  int order_cols_ = 1;
  int order_rows_ = 1;
  /// harmless_below per layer.
  std::array<double, layout::kLayerCount> harmless_{};

  // Per-net shape lists and tap lists for open analysis; nets are
  // numbered in first-seen order, and shape_net_ holds each shape's net
  // id (-1 for a label no index holds) so queries compare ints.
  std::vector<std::string> net_names_;
  std::vector<std::vector<std::size_t>> net_shapes_;
  std::vector<std::vector<std::size_t>> net_taps_;
  std::vector<int> shape_net_;
};

}  // namespace dot::defect

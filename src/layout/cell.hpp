// Cell layout: the geometric view of one macro cell, with net labels and
// device regions attached. This is the input of the defect simulator.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "layout/geometry.hpp"
#include "layout/layers.hpp"

namespace dot::layout {

/// One labelled rectangle of conducting material (or a cut / well).
struct Shape {
  Layer layer = Layer::kMetal1;
  Rect rect;
  /// Net label for conducting shapes; for cuts this is the net the cut
  /// belongs to; empty for wells.
  std::string net;
};

/// A point where a device terminal or cell pin electrically taps a net.
/// Opens partition a net's taps into disconnected groups. The layer
/// disambiguates stacked material (a gate tap belongs to the poly pad,
/// not the metal1 pad sitting right above it).
struct Tap {
  std::string net;
  std::string device;  ///< Device name, or "pin" for a cell pin.
  int terminal = 0;    ///< Canonical terminal index (see Netlist).
  Point at;
  Layer layer = Layer::kMetal1;
};

/// Channel region of a MOSFET: where its gate poly crosses its active
/// area. Needed for gate-oxide pinhole and shorted-device analysis.
struct MosRegion {
  std::string device;
  Rect channel;
  std::string gate_net;
  std::string source_net;
  std::string drain_net;
  bool in_nwell = false;  ///< PMOS devices sit inside the n-well.
};

class CellLayout {
 public:
  explicit CellLayout(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Each add_* throws util::InvalidInputError on a non-finite
  /// coordinate; add_shape also on an empty rect or an unlabelled
  /// conductor.
  void add_shape(Shape shape);
  void add_tap(Tap tap);
  void add_mos_region(MosRegion region);
  void add_nwell(Rect rect);

  const std::vector<Shape>& shapes() const { return shapes_; }
  const std::vector<Tap>& taps() const { return taps_; }
  const std::vector<MosRegion>& mos_regions() const { return mos_regions_; }
  const std::vector<Rect>& nwells() const { return nwells_; }

  /// Bounding box of everything (cached once sealed).
  Rect bounding_box() const;
  double area() const { return bounding_box().area(); }

  /// All distinct net labels appearing on shapes.
  std::vector<std::string> nets() const;

  /// Indices of shapes on `layer` intersecting `probe`.
  std::vector<std::size_t> shapes_hit(Layer layer, const Rect& probe) const;

  /// True when `p` lies inside any n-well rectangle.
  bool inside_nwell(Point p) const;

  /// The MOS region containing `p`, if any.
  const MosRegion* mos_region_at(Point p) const;

 private:
  std::string name_;
  std::vector<Shape> shapes_;
  std::vector<Tap> taps_;
  std::vector<MosRegion> mos_regions_;
  std::vector<Rect> nwells_;
  mutable std::optional<Rect> bbox_cache_;
};

}  // namespace dot::layout

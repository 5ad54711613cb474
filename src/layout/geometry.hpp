// 2-D geometry primitives for layout and defect analysis. Coordinates
// are in micrometres.
#pragma once

#include <string>

namespace dot::layout {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// Axis-aligned rectangle, normalized so lo <= hi on both axes.
struct Rect {
  double x_lo = 0.0;
  double y_lo = 0.0;
  double x_hi = 0.0;
  double y_hi = 0.0;

  static Rect spanning(double x0, double y0, double x1, double y1);
  /// Square of side `size` centred on `p` (spot-defect footprint).
  static Rect square(Point p, double size) {
    const double half = size / 2.0;
    return Rect{p.x - half, p.y - half, p.x + half, p.y + half};
  }

  double width() const { return x_hi - x_lo; }
  double height() const { return y_hi - y_lo; }
  double area() const { return width() * height(); }
  Point center() const { return {(x_lo + x_hi) / 2.0, (y_lo + y_hi) / 2.0}; }
  bool empty() const { return x_hi <= x_lo || y_hi <= y_lo; }

  bool contains(Point p) const {
    return p.x >= x_lo && p.x <= x_hi && p.y >= y_lo && p.y <= y_hi;
  }
  /// Open-interval overlap: touching edges do NOT count as intersecting
  /// (a defect must genuinely bridge material, not graze it).
  bool intersects(const Rect& other) const {
    return x_lo < other.x_hi && other.x_lo < x_hi && y_lo < other.y_hi &&
           other.y_lo < y_hi;
  }
  /// Clipped intersection; empty() when disjoint.
  Rect intersection(const Rect& other) const;
  /// Smallest rectangle containing both.
  Rect united(const Rect& other) const;
  /// Rectangle grown by `margin` on all sides.
  Rect expanded(double margin) const;

  std::string str() const;
};

}  // namespace dot::layout

#include "layout/geometry.hpp"

#include <algorithm>
#include <cstdio>

namespace dot::layout {

Rect Rect::spanning(double x0, double y0, double x1, double y1) {
  return Rect{std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
              std::max(y0, y1)};
}

Rect Rect::intersection(const Rect& other) const {
  return Rect{std::max(x_lo, other.x_lo), std::max(y_lo, other.y_lo),
              std::min(x_hi, other.x_hi), std::min(y_hi, other.y_hi)};
}

Rect Rect::united(const Rect& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  return Rect{std::min(x_lo, other.x_lo), std::min(y_lo, other.y_lo),
              std::max(x_hi, other.x_hi), std::max(y_hi, other.y_hi)};
}

Rect Rect::expanded(double margin) const {
  return Rect{x_lo - margin, y_lo - margin, x_hi + margin, y_hi + margin};
}

std::string Rect::str() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "(%.2f,%.2f)-(%.2f,%.2f)", x_lo, y_lo, x_hi,
                y_hi);
  return buf;
}

}  // namespace dot::layout

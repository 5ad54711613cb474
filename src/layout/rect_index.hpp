// The one spatial index behind layout queries: defect analysis, the
// harmless-size gap search and connectivity extraction all find their
// candidate rectangles through it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "layout/geometry.hpp"

namespace dot::layout {

/// Rectangles binned on a uniform grid of square bins over their
/// bounding box, in compressed (CSR) storage: a bin lists the indices
/// of the rectangles whose closed extent overlaps it, in ascending
/// order. The bin side follows from the input alone: about one
/// rectangle per bin, at most kMaxBinsPerAxis bins a side. Bin indices
/// are monotone in the coordinate, so two rectangles whose closed
/// extents overlap share at least one bin. A query may reach past the
/// box: coordinates outside it clamp to the edge bins.
class RectIndex {
 public:
  static constexpr int kMaxBinsPerAxis = 4096;

  /// Inclusive range of bins.
  struct Range {
    int x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  };

  /// An index of no rectangles.
  RectIndex() : RectIndex(std::vector<Rect>{}) {}
  explicit RectIndex(const std::vector<Rect>& rects);

  int bins_x() const { return bins_x_; }
  int bins_y() const { return bins_y_; }

  /// The bins `r` overlaps.
  Range range(const Rect& r) const {
    return {bin(r.x_lo, box_.x_lo, bins_x_), bin(r.x_hi, box_.x_lo, bins_x_),
            bin(r.y_lo, box_.y_lo, bins_y_), bin(r.y_hi, box_.y_lo, bins_y_)};
  }

  /// Indices of the rectangles in bin (bx, by), ascending.
  std::span<const std::size_t> members(int bx, int by) const {
    const std::size_t b = static_cast<std::size_t>(by) *
                              static_cast<std::size_t>(bins_x_) +
                          static_cast<std::size_t>(bx);
    return {members_.data() + start_[b], start_[b + 1] - start_[b]};
  }

  /// Calls visit(members(bx, by)) for every bin `r` overlaps, row by
  /// row. A rectangle that spans several of them is seen once per bin.
  template <typename Visit>
  void for_each_bin(const Rect& r, Visit&& visit) const {
    const Range g = range(r);
    for (int by = g.y0; by <= g.y1; ++by)
      for (int bx = g.x0; bx <= g.x1; ++bx) visit(members(bx, by));
  }

 private:
  int bin(double v, double lo, int n) const {
    return static_cast<int>(
        std::clamp((v - lo) * inv_side_, 0.0, static_cast<double>(n - 1)));
  }

  Rect box_;
  double side_ = 1.0;
  double inv_side_ = 1.0;
  int bins_x_ = 1;
  int bins_y_ = 1;
  std::vector<std::size_t> start_;
  std::vector<std::size_t> members_;
};

}  // namespace dot::layout

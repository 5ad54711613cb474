#include "layout/rect_index.hpp"

#include <algorithm>
#include <cmath>

namespace dot::layout {

RectIndex::RectIndex(const std::vector<Rect>& rects) {
  if (rects.empty()) {
    start_.assign(2, 0);  // one empty bin
    return;
  }
  box_ = rects.front();
  for (const Rect& r : rects)
    box_ = {std::min(box_.x_lo, r.x_lo), std::min(box_.y_lo, r.y_lo),
            std::max(box_.x_hi, r.x_hi), std::max(box_.y_hi, r.y_hi)};
  const double n = static_cast<double>(rects.size());
  side_ = std::max({std::sqrt(box_.area() / n), box_.width() / kMaxBinsPerAxis,
                    box_.height() / kMaxBinsPerAxis, 1e-9});
  inv_side_ = 1.0 / side_;
  bins_x_ = std::min(kMaxBinsPerAxis,
                     static_cast<int>(box_.width() / side_) + 1);
  bins_y_ = std::min(kMaxBinsPerAxis,
                     static_cast<int>(box_.height() / side_) + 1);

  // Count into start_[b + 1], prefix-sum so start_[b] opens bin b, then
  // fill in index order, which advances start_[b] to bin b's end; a
  // shift by one slot restores the offsets.
  start_.assign(static_cast<std::size_t>(bins_x_) *
                        static_cast<std::size_t>(bins_y_) +
                    1,
                0);
  auto for_each_slot = [&](const Rect& r, auto&& visit) {
    const Range g = range(r);
    for (int by = g.y0; by <= g.y1; ++by)
      for (int bx = g.x0; bx <= g.x1; ++bx)
        visit(static_cast<std::size_t>(by) *
                  static_cast<std::size_t>(bins_x_) +
              static_cast<std::size_t>(bx));
  };
  for (const Rect& r : rects)
    for_each_slot(r, [&](std::size_t b) { ++start_[b + 1]; });
  for (std::size_t b = 1; b < start_.size(); ++b) start_[b] += start_[b - 1];
  members_.resize(start_.back());
  for (std::size_t i = 0; i < rects.size(); ++i)
    for_each_slot(rects[i], [&](std::size_t b) { members_[start_[b]++] = i; });
  std::copy_backward(start_.begin(), start_.end() - 1, start_.end());
  start_[0] = 0;
}

}  // namespace dot::layout

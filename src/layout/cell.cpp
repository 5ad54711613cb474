#include "layout/cell.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dot::layout {
namespace {

bool finite(Point p) { return std::isfinite(p.x) && std::isfinite(p.y); }

bool finite(const Rect& r) {
  return finite(Point{r.x_lo, r.y_lo}) && finite(Point{r.x_hi, r.y_hi});
}

}  // namespace

void CellLayout::add_shape(Shape shape) {
  if (!finite(shape.rect))
    throw util::InvalidInputError(
        "CellLayout::add_shape: non-finite coordinate");
  if (shape.rect.empty())
    throw util::InvalidInputError("CellLayout::add_shape: empty rect");
  if (is_conducting(shape.layer) && shape.net.empty())
    throw util::InvalidInputError(
        "CellLayout::add_shape: conducting shape needs a net label");
  shapes_.push_back(std::move(shape));
  bbox_cache_.reset();
}

void CellLayout::add_tap(Tap tap) {
  if (!finite(tap.at))
    throw util::InvalidInputError("CellLayout::add_tap: non-finite point");
  taps_.push_back(std::move(tap));
}

void CellLayout::add_mos_region(MosRegion region) {
  if (!finite(region.channel))
    throw util::InvalidInputError(
        "CellLayout::add_mos_region: non-finite coordinate");
  mos_regions_.push_back(std::move(region));
}

void CellLayout::add_nwell(Rect rect) {
  if (!finite(rect))
    throw util::InvalidInputError(
        "CellLayout::add_nwell: non-finite coordinate");
  nwells_.push_back(rect);
  bbox_cache_.reset();
}

Rect CellLayout::bounding_box() const {
  if (bbox_cache_) return *bbox_cache_;
  Rect box;
  for (const auto& s : shapes_) box = box.united(s.rect);
  for (const auto& w : nwells_) box = box.united(w);
  bbox_cache_ = box;
  return box;
}

std::vector<std::string> CellLayout::nets() const {
  std::vector<std::string> out;
  for (const auto& s : shapes_) {
    if (s.net.empty()) continue;
    if (std::find(out.begin(), out.end(), s.net) == out.end())
      out.push_back(s.net);
  }
  return out;
}

std::vector<std::size_t> CellLayout::shapes_hit(Layer layer,
                                                const Rect& probe) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < shapes_.size(); ++i)
    if (shapes_[i].layer == layer && shapes_[i].rect.intersects(probe))
      out.push_back(i);
  return out;
}

bool CellLayout::inside_nwell(Point p) const {
  return std::any_of(nwells_.begin(), nwells_.end(),
                     [&](const Rect& w) { return w.contains(p); });
}

const MosRegion* CellLayout::mos_region_at(Point p) const {
  for (const auto& region : mos_regions_)
    if (region.channel.contains(p)) return &region;
  return nullptr;
}

}  // namespace dot::layout

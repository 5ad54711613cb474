#include "layout/extract.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "util/error.hpp"

namespace dot::layout {

UnionFind::UnionFind(std::size_t n) : parent_(n), rank_(n, 0) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
}

std::size_t UnionFind::find(std::size_t i) {
  while (parent_[i] != i) {
    parent_[i] = parent_[parent_[i]];
    i = parent_[i];
  }
  return i;
}

void UnionFind::unite(std::size_t a, std::size_t b) {
  a = find(a);
  b = find(b);
  if (a == b) return;
  if (rank_[a] < rank_[b]) std::swap(a, b);
  parent_[b] = a;
  if (rank_[a] == rank_[b]) ++rank_[a];
}

namespace {

bool cut_connects(Layer cut, Layer conductor) {
  if (cut == Layer::kContact)
    return conductor == Layer::kMetal1 || conductor == Layer::kPoly ||
           conductor == Layer::kActive;
  if (cut == Layer::kVia1)
    return conductor == Layer::kMetal1 || conductor == Layer::kMetal2;
  return false;
}

/// The pair rule for two intersecting pieces.
bool layers_connect(Layer a, Layer b) {
  return (a == b && is_conducting(a)) || (is_cut(a) && cut_connects(a, b)) ||
         (is_cut(b) && cut_connects(b, a));
}

/// Unions shapes that are electrically continuous, honouring a removal
/// mask (removed shapes connect to nothing).
UnionFind build_union(const CellLayout& cell,
                      const std::vector<char>& removed) {
  std::vector<Piece> pieces;
  pieces.reserve(cell.shapes().size());
  for (const auto& shape : cell.shapes())
    pieces.push_back({shape.rect, shape.layer});
  return connect_pieces(pieces, removed);
}

}  // namespace

UnionFind connect_pieces(const std::vector<Piece>& pieces,
                         const std::vector<char>& removed) {
  const std::size_t n = pieces.size();
  UnionFind uf(n);
  // Wells connect to nothing, so only conductors and cuts are binned.
  std::vector<std::size_t> live;
  Rect box;
  for (std::size_t i = 0; i < n; ++i) {
    if (!removed.empty() && removed[i]) continue;
    if (!is_conducting(pieces[i].layer) && !is_cut(pieces[i].layer)) continue;
    live.push_back(i);
    const Rect& r = pieces[i].rect;
    box = live.size() == 1
              ? r
              : Rect{std::min(box.x_lo, r.x_lo), std::min(box.y_lo, r.y_lo),
                     std::max(box.x_hi, r.x_hi), std::max(box.y_hi, r.y_hi)};
  }
  if (live.size() < 2) return uf;

  // Square bins sized for about one piece per bin, at most 4096 a side.
  // Bin indices are monotone in the coordinate, so two pieces whose
  // closed extents overlap share at least one bin.
  constexpr double kMaxBinsPerAxis = 4096.0;
  const double side = std::max(
      {std::sqrt(box.area() / static_cast<double>(live.size())),
       box.width() / kMaxBinsPerAxis, box.height() / kMaxBinsPerAxis, 1e-9});
  const int bins_x = static_cast<int>(box.width() / side) + 1;
  const int bins_y = static_cast<int>(box.height() / side) + 1;
  auto bin_x = [&](double x) {
    return std::clamp(static_cast<int>((x - box.x_lo) / side), 0, bins_x - 1);
  };
  auto bin_y = [&](double y) {
    return std::clamp(static_cast<int>((y - box.y_lo) / side), 0, bins_y - 1);
  };
  auto for_each_bin = [&](const Rect& r, auto&& visit) {
    const int x1 = bin_x(r.x_hi), y1 = bin_y(r.y_hi);
    for (int by = bin_y(r.y_lo); by <= y1; ++by)
      for (int bx = bin_x(r.x_lo); bx <= x1; ++bx)
        visit(static_cast<std::size_t>(by) * static_cast<std::size_t>(bins_x) +
              static_cast<std::size_t>(bx));
  };

  // Compressed bin -> piece lists, each in ascending piece order.
  const std::size_t bin_count =
      static_cast<std::size_t>(bins_x) * static_cast<std::size_t>(bins_y);
  std::vector<std::size_t> start(bin_count + 1, 0);
  for (std::size_t i : live)
    for_each_bin(pieces[i].rect, [&](std::size_t b) { ++start[b + 1]; });
  for (std::size_t b = 0; b < bin_count; ++b) start[b + 1] += start[b];
  std::vector<std::size_t> members(start[bin_count]);
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (std::size_t i : live)
    for_each_bin(pieces[i].rect,
                 [&](std::size_t b) { members[fill[b]++] = i; });

  // For each piece, its connected partners j > i from the bins it
  // covers, deduplicated by a visit stamp and united in ascending order.
  std::vector<std::size_t> stamp(n, n);
  std::vector<std::size_t> partners;
  for (std::size_t i : live) {
    partners.clear();
    for_each_bin(pieces[i].rect, [&](std::size_t b) {
      const auto end = members.begin() + static_cast<long>(start[b + 1]);
      for (auto it = std::upper_bound(
               members.begin() + static_cast<long>(start[b]), end, i);
           it != end; ++it) {
        const std::size_t j = *it;
        if (stamp[j] == i) continue;
        stamp[j] = i;
        if (pieces[i].rect.intersects(pieces[j].rect) &&
            layers_connect(pieces[i].layer, pieces[j].layer))
          partners.push_back(j);
      }
    });
    std::sort(partners.begin(), partners.end());
    for (std::size_t j : partners) uf.unite(i, j);
  }
  return uf;
}

ExtractionResult extract_connectivity(const CellLayout& cell) {
  const auto& shapes = cell.shapes();
  std::vector<char> removed(shapes.size(), 0);
  UnionFind uf = build_union(cell, removed);

  ExtractionResult result;
  result.component_of_shape.assign(shapes.size(), -1);
  std::map<std::size_t, int> root_to_component;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (!is_conducting(shapes[i].layer) && !is_cut(shapes[i].layer)) continue;
    const std::size_t root = uf.find(i);
    auto [it, inserted] =
        root_to_component.emplace(root, result.component_count);
    if (inserted) ++result.component_count;
    result.component_of_shape[i] = it->second;
  }
  return result;
}

std::vector<std::string> verify_net_labels(const CellLayout& cell) {
  const auto extraction = extract_connectivity(cell);
  const auto& shapes = cell.shapes();
  std::vector<std::string> issues;

  // Net label -> set of components; component -> set of labels.
  std::map<std::string, std::set<int>> components_of_label;
  std::map<int, std::set<std::string>> labels_of_component;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const int comp = extraction.component_of_shape[i];
    if (comp < 0 || shapes[i].net.empty()) continue;
    components_of_label[shapes[i].net].insert(comp);
    labels_of_component[comp].insert(shapes[i].net);
  }
  for (const auto& [label, comps] : components_of_label) {
    if (comps.size() > 1)
      issues.push_back("net '" + label + "' is split into " +
                       std::to_string(comps.size()) + " components");
  }
  for (const auto& [comp, labels] : labels_of_component) {
    if (labels.size() > 1) {
      std::string joined;
      for (const auto& l : labels) joined += (joined.empty() ? "" : ", ") + l;
      issues.push_back("component " + std::to_string(comp) +
                       " carries several labels: " + joined);
    }
  }
  return issues;
}

std::vector<std::vector<std::size_t>> tap_groups_after_removal(
    const CellLayout& cell, const std::string& net,
    const std::vector<std::size_t>& removed_shapes) {
  const auto& shapes = cell.shapes();
  std::vector<char> removed(shapes.size(), 0);
  for (std::size_t idx : removed_shapes) {
    if (idx >= shapes.size())
      throw util::InvalidInputError("tap_groups_after_removal: bad index");
    removed[idx] = 1;
  }
  UnionFind uf = build_union(cell, removed);

  // Collect the taps of this net and locate a supporting shape for each.
  std::vector<std::size_t> tap_indices;
  for (std::size_t t = 0; t < cell.taps().size(); ++t)
    if (cell.taps()[t].net == net) tap_indices.push_back(t);

  std::map<long, std::vector<std::size_t>> groups;  // root (or -1-t) -> taps
  for (std::size_t t : tap_indices) {
    const auto& tap = cell.taps()[t];
    long key = -1 - static_cast<long>(t);  // default: isolated tap
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (removed[i] || shapes[i].net != net) continue;
      if (shapes[i].layer != tap.layer) continue;
      if (shapes[i].rect.contains(tap.at)) {
        key = static_cast<long>(uf.find(i));
        break;
      }
    }
    groups[key].push_back(t);
  }

  std::vector<std::vector<std::size_t>> out;
  out.reserve(groups.size());
  for (auto& [key, taps] : groups) out.push_back(std::move(taps));
  return out;
}

}  // namespace dot::layout

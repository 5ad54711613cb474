#include "layout/extract.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "layout/rect_index.hpp"

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

}  // namespace

UnionFind connect_pieces(const std::vector<Piece>& pieces) {
  UnionFind uf(pieces.size());
  // Wells connect to nothing, so only conductors and cuts are indexed.
  std::vector<std::size_t> live;
  std::vector<Rect> rects;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (!is_conducting(pieces[i].layer) && !is_cut(pieces[i].layer)) continue;
    live.push_back(i);
    rects.push_back(pieces[i].rect);
  }
  if (live.size() < 2) return uf;
  const RectIndex index(rects);

  // For each live piece a, its connected partners b > a from the bins it
  // covers, deduplicated by a visit stamp and united in ascending order.
  std::vector<std::size_t> stamp(live.size(), live.size());
  std::vector<std::size_t> partners;
  for (std::size_t a = 0; a < live.size(); ++a) {
    partners.clear();
    index.for_each_bin(rects[a], [&](std::span<const std::size_t> members) {
      for (auto it = std::upper_bound(members.begin(), members.end(), a);
           it != members.end(); ++it) {
        const std::size_t b = *it;
        if (stamp[b] == a) continue;
        stamp[b] = a;
        if (rects[a].intersects(rects[b]) &&
            layers_connect(pieces[live[a]].layer, pieces[live[b]].layer))
          partners.push_back(b);
      }
    });
    std::sort(partners.begin(), partners.end());
    for (std::size_t b : partners) uf.unite(live[a], live[b]);
  }
  return uf;
}

ExtractionResult extract_connectivity(const CellLayout& cell) {
  const auto& shapes = cell.shapes();
  std::vector<Piece> pieces;
  pieces.reserve(shapes.size());
  for (const auto& shape : shapes) pieces.push_back({shape.rect, shape.layer});
  UnionFind uf = connect_pieces(pieces);

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

}  // namespace dot::layout

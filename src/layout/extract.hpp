// Geometric connectivity extraction.
//
// Two uses:
//  1. Verifying that a synthesized layout's net labels agree with its
//     geometry (every label is one connected component).
//  2. Open-fault analysis: when a missing-material defect deletes wire
//     material, recomputing the connected components of the damaged net
//     tells us how the device taps are partitioned.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "layout/cell.hpp"

namespace dot::layout {

/// Disjoint-set over shape indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);
  std::size_t find(std::size_t i);
  void unite(std::size_t a, std::size_t b);
  bool same(std::size_t a, std::size_t b) { return find(a) == find(b); }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> rank_;
};

/// A rectangle of material on one layer: a whole shape, or the remnant
/// of one that a missing-material defect left behind.
struct Piece {
  Rect rect;
  Layer layer = Layer::kMetal1;
};

/// Electrical connectivity of a set of pieces: unites every pair that
/// intersects and is electrically continuous -- two pieces of one
/// conducting layer, or a cut over a layer it connects. A RectIndex
/// finds the candidate pairs, which are then united in the order of the
/// all-pairs scan (ascending i, then ascending j > i), so the forest,
/// root indices included, is the one that scan builds.
UnionFind connect_pieces(const std::vector<Piece>& pieces);

struct ExtractionResult {
  /// Component id per shape; -1 for non-conducting shapes (wells).
  std::vector<int> component_of_shape;
  int component_count = 0;
};

/// Connects same-layer overlapping conductors, contacts (metal1 to
/// poly/active) and vias (metal1 to metal2). Cut shapes join the
/// component of the layers they connect.
ExtractionResult extract_connectivity(const CellLayout& cell);

/// Human-readable label/geometry mismatches: a net label split over
/// several components, or one component carrying several labels.
std::vector<std::string> verify_net_labels(const CellLayout& cell);

}  // namespace dot::layout

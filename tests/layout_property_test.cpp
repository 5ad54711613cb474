// Property-based tests of layout synthesis and extraction: for randomly
// generated netlists the synthesized layout must always be geometrically
// consistent with its net labels, every device terminal must carry a
// tap sitting on material of its own net and layer, and the extractor's
// component count must equal the number of distinct nets. The binned
// pair enumerator must build the same union-find forest as the all-pairs
// scan, on synthesized cells and on random rectangle soups with shapes
// removed.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>

#include "layout/drc.hpp"
#include "layout/extract.hpp"
#include "layout/synth.hpp"
#include "spice/netlist.hpp"
#include "util/rng.hpp"

namespace dot::layout {
namespace {

/// Random mixed netlist: NMOS/PMOS/resistors/capacitors over a small
/// net pool, always with vdd/gnd present.
spice::Netlist random_netlist(util::Rng& rng) {
  spice::Netlist n;
  const int net_count = 3 + static_cast<int>(rng.below(8));
  auto net = [&](bool allow_rails) {
    const int pool = net_count + (allow_rails ? 2 : 0);
    const int pick = static_cast<int>(rng.below(static_cast<std::uint64_t>(pool)));
    if (pick == net_count) return std::string("0");
    if (pick == net_count + 1) return std::string("vdd");
    return "net" + std::to_string(pick);
  };
  const int devices = 2 + static_cast<int>(rng.below(10));
  spice::MosModel model;
  for (int d = 0; d < devices; ++d) {
    const std::string name = "D" + std::to_string(d);
    switch (rng.below(4)) {
      case 0:
        n.add_mosfet(name, spice::MosType::kNmos, net(true), net(false),
                     net(true), "0", rng.uniform(2e-6, 12e-6), 1e-6, model);
        break;
      case 1:
        n.add_mosfet(name, spice::MosType::kPmos, net(true), net(false),
                     net(true), "vdd", rng.uniform(2e-6, 12e-6), 1e-6,
                     model);
        break;
      case 2:
        n.add_resistor(name, net(true), net(false),
                       rng.uniform(100.0, 1e5));
        break;
      default:
        n.add_capacitor(name, net(false), net(true),
                        rng.uniform(1e-14, 1e-11));
        break;
    }
  }
  return n;
}

class SynthPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SynthPropertyTest, SynthesisAlwaysLabelConsistent) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ull);
  const auto netlist = random_netlist(rng);
  SynthOptions opt;
  // synthesize_layout runs verify_net_labels internally and throws on
  // any inconsistency; reaching the assertions below is the property.
  const CellLayout cell = synthesize_layout(netlist, "rand", opt);
  EXPECT_TRUE(verify_net_labels(cell).empty());
  EXPECT_FALSE(cell.shapes().empty());
  EXPECT_GT(cell.area(), 0.0);
}

TEST_P(SynthPropertyTest, EveryTerminalHasTapOnOwnNetMaterial) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 11400714819323ull);
  const auto netlist = random_netlist(rng);
  const CellLayout cell = synthesize_layout(netlist, "rand", SynthOptions{});

  // Count taps per physical device terminal.
  for (const auto& device : netlist.devices()) {
    const auto nodes = spice::Netlist::terminal_nodes(device);
    const std::string& name = spice::device_name(device);
    for (std::size_t t = 0; t < nodes.size(); ++t) {
      bool found = false;
      for (const auto& tap : cell.taps())
        found = found || (tap.device == name &&
                          tap.terminal == static_cast<int>(t));
      EXPECT_TRUE(found) << name << " terminal " << t;
    }
  }
  // Every tap must sit on a shape of its own net and layer.
  for (const auto& tap : cell.taps()) {
    bool supported = false;
    for (const auto& shape : cell.shapes())
      supported = supported ||
                  (shape.net == tap.net && shape.layer == tap.layer &&
                   shape.rect.contains(tap.at));
    EXPECT_TRUE(supported) << "tap of " << tap.device << " on " << tap.net;
  }
}

TEST_P(SynthPropertyTest, SynthesizedCellsAreDrcClean) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 777767ull);
  const auto netlist = random_netlist(rng);
  const CellLayout cell = synthesize_layout(netlist, "rand", SynthOptions{});
  const auto violations = run_drc(cell);
  EXPECT_TRUE(violations.empty()) << drc_report(violations);
}

TEST_P(SynthPropertyTest, ComponentCountEqualsNetCount) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97531ull);
  const auto netlist = random_netlist(rng);
  const CellLayout cell = synthesize_layout(netlist, "rand", SynthOptions{});
  const auto extraction = extract_connectivity(cell);
  std::set<std::string> nets;
  for (const auto& shape : cell.shapes())
    if (!shape.net.empty()) nets.insert(shape.net);
  EXPECT_EQ(static_cast<std::size_t>(extraction.component_count),
            nets.size());
}

TEST_P(SynthPropertyTest, PinTrunksSpanFullWidth) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31ull + 7);
  const auto netlist = random_netlist(rng);
  // Choose one non-rail net used by the netlist as a pin.
  std::string pin;
  for (const auto& device : netlist.devices()) {
    for (auto id : spice::Netlist::terminal_nodes(device)) {
      const std::string name = netlist.node_name(id);
      if (name != "0" && name != "vdd") {
        pin = name;
        break;
      }
    }
    if (!pin.empty()) break;
  }
  if (pin.empty()) GTEST_SKIP() << "netlist uses only rails";
  SynthOptions opt;
  opt.pins = {pin};
  const CellLayout cell = synthesize_layout(netlist, "rand", opt);
  const double width = cell.bounding_box().width();
  bool spans = false;
  for (const auto& shape : cell.shapes())
    spans = spans || (shape.net == pin && shape.layer == Layer::kMetal1 &&
                      shape.rect.width() > 0.9 * width);
  EXPECT_TRUE(spans);
}

/// The all-pairs union the binned enumerator replaced, kept as the
/// reference: every pair i < j, in order, united when the two pieces
/// intersect and connect electrically.
UnionFind brute_force_union(const std::vector<Piece>& pieces) {
  auto cut_connects = [](Layer cut, Layer conductor) {
    if (cut == Layer::kContact)
      return conductor == Layer::kMetal1 || conductor == Layer::kPoly ||
             conductor == Layer::kActive;
    if (cut == Layer::kVia1)
      return conductor == Layer::kMetal1 || conductor == Layer::kMetal2;
    return false;
  };
  UnionFind uf(pieces.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    for (std::size_t j = i + 1; j < pieces.size(); ++j) {
      const Piece& a = pieces[i];
      const Piece& b = pieces[j];
      if (!a.rect.intersects(b.rect)) continue;
      if ((a.layer == b.layer && is_conducting(a.layer)) ||
          (is_cut(a.layer) && cut_connects(a.layer, b.layer)) ||
          (is_cut(b.layer) && cut_connects(b.layer, a.layer)))
        uf.unite(i, j);
    }
  }
  return uf;
}

std::vector<Piece> pieces_of(const CellLayout& cell) {
  std::vector<Piece> pieces;
  for (const auto& shape : cell.shapes())
    pieces.push_back({shape.rect, shape.layer});
  return pieces;
}

/// Every piece has the same root in both forests: the same partition,
/// and the same root of each part.
void expect_same_forest(UnionFind& a, UnionFind& b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(a.find(i), b.find(i)) << "piece " << i;
}

TEST_P(SynthPropertyTest, BinnedExtractionMatchesAllPairs) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 4093ull + 5);
  const CellLayout cell =
      synthesize_layout(random_netlist(rng), "rand", SynthOptions{});
  const auto pieces = pieces_of(cell);
  UnionFind binned = connect_pieces(pieces);
  UnionFind reference = brute_force_union(pieces);
  expect_same_forest(binned, reference, pieces.size());

  // Component numbering follows shape order, so it must agree too.
  const auto extraction = extract_connectivity(cell);
  std::map<std::size_t, int> number_of_root;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (!is_conducting(pieces[i].layer) && !is_cut(pieces[i].layer)) {
      EXPECT_EQ(extraction.component_of_shape[i], -1);
      continue;
    }
    const auto [it, inserted] = number_of_root.emplace(
        reference.find(i), static_cast<int>(number_of_root.size()));
    EXPECT_EQ(extraction.component_of_shape[i], it->second) << "shape " << i;
  }
  EXPECT_EQ(static_cast<std::size_t>(extraction.component_count),
            number_of_root.size());
}

/// Random rectangles on every layer over a 0.5 um grid, so touching
/// edges, shared corners and stacked cuts all occur; a few long wires
/// span many bins.
std::vector<Piece> random_soup(util::Rng& rng) {
  constexpr Layer kLayers[] = {Layer::kNWell,   Layer::kActive,
                               Layer::kPoly,    Layer::kContact,
                               Layer::kMetal1,  Layer::kVia1,
                               Layer::kMetal2};
  const int count = 20 + static_cast<int>(rng.below(180));
  auto grid = [&](double extent) {
    return 0.5 * static_cast<double>(
                     rng.below(static_cast<std::uint64_t>(extent * 2)));
  };
  std::vector<Piece> pieces;
  for (int k = 0; k < count; ++k) {
    const Layer layer = kLayers[rng.below(std::size(kLayers))];
    const double x = grid(60.0), y = grid(60.0);
    const bool wire = rng.chance(0.1);
    const double w = wire ? 10.0 + grid(50.0) : 0.5 + grid(4.0);
    const double h = wire ? 0.5 + grid(1.0) : 0.5 + grid(4.0);
    const bool vertical = rng.chance(0.5);
    pieces.push_back(
        {Rect{x, y, x + (vertical ? h : w), y + (vertical ? w : h)}, layer});
  }
  return pieces;
}

TEST_P(SynthPropertyTest, BinnedRemovalMatchesAllPairs) {
  // Open analysis connects what a defect leaves: the pieces of a net
  // with some of them gone.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151ull + 3);
  for (int round = 0; round < 8; ++round) {
    std::vector<Piece> kept;
    for (const Piece& piece : random_soup(rng))
      if (!rng.chance(0.15)) kept.push_back(piece);
    UnionFind binned = connect_pieces(kept);
    UnionFind reference = brute_force_union(kept);
    expect_same_forest(binned, reference, kept.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthPropertyTest, ::testing::Range(1, 26));

}  // namespace
}  // namespace dot::layout

#include <gtest/gtest.h>

#include <algorithm>

#include "layout/cell.hpp"
#include "layout/extract.hpp"
#include "layout/geometry.hpp"
#include "layout/layers.hpp"
#include "layout/synth.hpp"
#include "spice/netlist.hpp"
#include "util/error.hpp"

namespace dot::layout {
namespace {

TEST(Rect, BasicsAndNormalization) {
  const Rect r = Rect::spanning(3.0, 4.0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(r.x_lo, 1.0);
  EXPECT_DOUBLE_EQ(r.y_hi, 4.0);
  EXPECT_DOUBLE_EQ(r.width(), 2.0);
  EXPECT_DOUBLE_EQ(r.area(), 4.0);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.contains({2.0, 3.0}));
  EXPECT_FALSE(r.contains({0.0, 3.0}));
}

TEST(Rect, SquareCenteredOnPoint) {
  const Rect s = Rect::square({1.0, 2.0}, 4.0);
  EXPECT_DOUBLE_EQ(s.x_lo, -1.0);
  EXPECT_DOUBLE_EQ(s.y_hi, 4.0);
  EXPECT_DOUBLE_EQ(s.center().x, 1.0);
}

TEST(Rect, TouchingEdgesDoNotIntersect) {
  const Rect a{0, 0, 1, 1};
  const Rect b{1, 0, 2, 1};  // shares the x = 1 edge
  EXPECT_FALSE(a.intersects(b));
  const Rect c{0.9, 0, 2, 1};
  EXPECT_TRUE(a.intersects(c));
}

TEST(Rect, IntersectionAndUnion) {
  const Rect a{0, 0, 2, 2};
  const Rect b{1, 1, 3, 3};
  const Rect i = a.intersection(b);
  EXPECT_DOUBLE_EQ(i.x_lo, 1.0);
  EXPECT_DOUBLE_EQ(i.x_hi, 2.0);
  const Rect u = a.united(b);
  EXPECT_DOUBLE_EQ(u.x_hi, 3.0);
  EXPECT_TRUE(a.intersection(Rect{5, 5, 6, 6}).empty());
}

TEST(Layers, Classification) {
  EXPECT_TRUE(is_conducting(Layer::kMetal1));
  EXPECT_TRUE(is_conducting(Layer::kActive));
  EXPECT_FALSE(is_conducting(Layer::kContact));
  EXPECT_TRUE(is_cut(Layer::kVia1));
  EXPECT_FALSE(is_cut(Layer::kNWell));
  EXPECT_EQ(layer_name(Layer::kPoly), "poly");
}

TEST(CellLayout, RejectsUnlabeledConductor) {
  CellLayout cell("c");
  EXPECT_THROW(cell.add_shape({Layer::kMetal1, Rect{0, 0, 1, 1}, ""}),
               util::InvalidInputError);
  EXPECT_THROW(cell.add_shape({Layer::kMetal1, Rect{1, 1, 1, 1}, "a"}),
               util::InvalidInputError);
}

TEST(CellLayout, BoundingBoxAndQueries) {
  CellLayout cell("c");
  cell.add_shape({Layer::kMetal1, Rect{0, 0, 10, 1}, "a"});
  cell.add_shape({Layer::kMetal1, Rect{0, 5, 10, 6}, "b"});
  cell.add_shape({Layer::kPoly, Rect{2, -1, 3, 7}, "g"});
  EXPECT_DOUBLE_EQ(cell.bounding_box().y_lo, -1.0);
  EXPECT_DOUBLE_EQ(cell.bounding_box().x_hi, 10.0);
  EXPECT_EQ(cell.nets().size(), 3u);
  EXPECT_EQ(cell.shapes_hit(Layer::kMetal1, Rect{1, 0.5, 2, 5.5}).size(), 2u);
  EXPECT_EQ(cell.shapes_hit(Layer::kPoly, Rect{5, 0, 6, 1}).size(), 0u);
}

TEST(CellLayout, NwellAndMosRegionLookup) {
  CellLayout cell("c");
  cell.add_nwell(Rect{0, 10, 20, 20});
  cell.add_mos_region({"M1", Rect{1, 1, 2, 3}, "g", "s", "d", false});
  EXPECT_TRUE(cell.inside_nwell({5, 15}));
  EXPECT_FALSE(cell.inside_nwell({5, 5}));
  ASSERT_NE(cell.mos_region_at({1.5, 2.0}), nullptr);
  EXPECT_EQ(cell.mos_region_at({1.5, 2.0})->device, "M1");
  EXPECT_EQ(cell.mos_region_at({9, 9}), nullptr);
}

TEST(UnionFind, UniteAndFind) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.same(0, 1));
  uf.unite(0, 1);
  uf.unite(3, 4);
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(1, 3));
  uf.unite(1, 4);
  EXPECT_TRUE(uf.same(0, 3));
}

TEST(Extract, SameLayerOverlapConnects) {
  CellLayout cell("c");
  cell.add_shape({Layer::kMetal1, Rect{0, 0, 5, 1}, "a"});
  cell.add_shape({Layer::kMetal1, Rect{4, 0, 9, 1}, "a"});
  cell.add_shape({Layer::kMetal1, Rect{0, 5, 5, 6}, "b"});
  const auto r = extract_connectivity(cell);
  EXPECT_EQ(r.component_count, 2);
  EXPECT_EQ(r.component_of_shape[0], r.component_of_shape[1]);
  EXPECT_NE(r.component_of_shape[0], r.component_of_shape[2]);
}

TEST(Extract, ContactConnectsMetalToPoly) {
  CellLayout cell("c");
  cell.add_shape({Layer::kMetal1, Rect{0, 0, 2, 2}, "a"});
  cell.add_shape({Layer::kPoly, Rect{0, 0, 2, 2}, "a"});
  const auto before = extract_connectivity(cell);
  EXPECT_EQ(before.component_count, 2);  // no cut yet
  cell.add_shape({Layer::kContact, Rect{0.5, 0.5, 1.5, 1.5}, "a"});
  const auto after = extract_connectivity(cell);
  EXPECT_EQ(after.component_count, 1);
}

TEST(Extract, ViaDoesNotConnectPoly) {
  CellLayout cell("c");
  cell.add_shape({Layer::kMetal2, Rect{0, 0, 2, 2}, "a"});
  cell.add_shape({Layer::kPoly, Rect{0, 0, 2, 2}, "b"});
  cell.add_shape({Layer::kVia1, Rect{0.5, 0.5, 1.5, 1.5}, "a"});
  const auto r = extract_connectivity(cell);
  // Via joins metal2 only; poly stays its own component.
  EXPECT_EQ(r.component_count, 2);
}

TEST(Extract, VerifyLabelsFlagsSplitAndMerge) {
  CellLayout cell("c");
  cell.add_shape({Layer::kMetal1, Rect{0, 0, 1, 1}, "a"});
  cell.add_shape({Layer::kMetal1, Rect{5, 5, 6, 6}, "a"});  // split net
  cell.add_shape({Layer::kMetal1, Rect{8, 0, 9, 1}, "b"});
  cell.add_shape({Layer::kMetal1, Rect{8.5, 0, 10, 1}, "c"});  // merged nets
  const auto issues = verify_net_labels(cell);
  EXPECT_EQ(issues.size(), 2u);
}

// ---------------------------------------------------------------------
// Synthesis tests use a small CMOS circuit.

spice::Netlist inverter_with_passives() {
  spice::Netlist n;
  spice::MosModel m;
  n.add_mosfet("MN", spice::MosType::kNmos, "out", "in", "0", "0", 4e-6,
               1e-6, m);
  n.add_mosfet("MP", spice::MosType::kPmos, "out", "in", "vdd", "vdd", 8e-6,
               1e-6, m);
  n.add_resistor("R1", "out", "fb", 10e3);
  n.add_capacitor("C1", "fb", "0", 1e-12);
  return n;
}

TEST(Synth, ProducesVerifiedLayout) {
  const auto netlist = inverter_with_passives();
  SynthOptions opt;
  opt.pins = {"in", "out", "vdd", "0"};
  // The synthesizer throws if its own label check fails, so successful
  // construction already certifies geometric consistency.
  const CellLayout cell = synthesize_layout(netlist, "inv", opt);
  EXPECT_EQ(cell.name(), "inv");
  EXPECT_GT(cell.shapes().size(), 20u);
  EXPECT_EQ(cell.mos_regions().size(), 2u);
  EXPECT_GT(cell.area(), 100.0);
}

TEST(Synth, EveryDeviceTerminalHasTap) {
  const auto netlist = inverter_with_passives();
  SynthOptions opt;
  const CellLayout cell = synthesize_layout(netlist, "inv", opt);
  int mn_taps = 0, r_taps = 0, c_taps = 0;
  for (const auto& tap : cell.taps()) {
    if (tap.device == "MN") ++mn_taps;
    if (tap.device == "R1") ++r_taps;
    if (tap.device == "C1") ++c_taps;
  }
  EXPECT_EQ(mn_taps, 4);  // drain, gate, source, bulk
  EXPECT_EQ(r_taps, 2);
  EXPECT_EQ(c_taps, 2);
}

TEST(Synth, PinNetsSpanFullWidthAndHavePinTaps) {
  const auto netlist = inverter_with_passives();
  SynthOptions opt;
  opt.pins = {"in", "out"};
  const CellLayout cell = synthesize_layout(netlist, "inv", opt);
  int pin_taps = 0;
  for (const auto& tap : cell.taps())
    if (tap.device == "pin") ++pin_taps;
  EXPECT_EQ(pin_taps, 2);
  // The "in" trunk must reach both cell edges.
  bool found_full_span = false;
  for (const auto& s : cell.shapes()) {
    if (s.net == "in" && s.layer == Layer::kMetal1 &&
        s.rect.x_lo == 0.0 && s.rect.width() > cell.bounding_box().width() - 1)
      found_full_span = true;
  }
  EXPECT_TRUE(found_full_span);
}

TEST(Synth, TrackOrderHintMakesNetsAdjacent) {
  spice::Netlist n;
  spice::MosModel m;
  // Four NMOS with distinct gate nets b1..b4.
  for (int i = 1; i <= 4; ++i) {
    const std::string s = std::to_string(i);
    n.add_mosfet("M" + s, spice::MosType::kNmos, "d" + s, "b" + s, "0", "0",
                 4e-6, 1e-6, m);
  }
  SynthOptions opt;
  opt.track_order = {"b1", "b3"};  // force b1 and b3 adjacent
  const CellLayout cell = synthesize_layout(n, "bias", opt);

  auto trunk_y = [&](const std::string& net) {
    double best_width = -1.0, y = 0.0;
    for (const auto& s : cell.shapes()) {
      if (s.net == net && s.layer == Layer::kMetal1 &&
          s.rect.width() > best_width) {
        best_width = s.rect.width();
        y = s.rect.center().y;
      }
    }
    return y;
  };
  const double pitch = opt.rules.track_pitch();
  EXPECT_NEAR(std::abs(trunk_y("b3") - trunk_y("b1")), pitch, 1e-9);
}

TEST(Synth, PmosRowSitsInNwell) {
  const auto netlist = inverter_with_passives();
  SynthOptions opt;
  const CellLayout cell = synthesize_layout(netlist, "inv", opt);
  ASSERT_EQ(cell.nwells().size(), 1u);
  for (const auto& region : cell.mos_regions()) {
    if (region.device == "MP") {
      EXPECT_TRUE(region.in_nwell);
      EXPECT_TRUE(cell.inside_nwell(region.channel.center()));
    } else {
      EXPECT_FALSE(cell.inside_nwell(region.channel.center()));
    }
  }
}

TEST(Synth, EmptyNetlistRejected) {
  spice::Netlist n;
  n.add_vsource("V1", "a", "0", spice::SourceSpec::dc(1.0));
  EXPECT_THROW(synthesize_layout(n, "x", SynthOptions{}),
               util::InvalidInputError);
}

TEST(Synth, LargeResistorLadderStaysConsistent) {
  // A ladder-like chain of 64 resistors exercises track sharing.
  spice::Netlist n;
  for (int i = 0; i < 64; ++i) {
    n.add_resistor("R" + std::to_string(i), "n" + std::to_string(i),
                   "n" + std::to_string(i + 1), 100.0);
  }
  SynthOptions opt;
  opt.pins = {"n0", "n64"};
  const CellLayout cell = synthesize_layout(n, "ladder", opt);
  EXPECT_GT(cell.shapes().size(), 300u);
  // Track sharing keeps the channel far below 64 tracks tall.
  EXPECT_LT(cell.bounding_box().height(), 120.0);
}

}  // namespace
}  // namespace dot::layout

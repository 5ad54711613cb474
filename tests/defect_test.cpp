#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "defect/analyze.hpp"
#include "defect/simulate.hpp"
#include "defect/statistics.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "layout/synth.hpp"
#include "spice/netlist.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dot::defect {
namespace {

using fault::FaultKind;
using layout::CellLayout;
using layout::Layer;
using layout::Rect;

TEST(Statistics, WeightsFavorMetallization) {
  const DefectStatistics stats;
  const double extra_metal = stats.weight(DefectType::kExtraMetal1) +
                             stats.weight(DefectType::kExtraMetal2);
  double total = 0.0;
  for (int i = 0; i < kDefectTypeCount; ++i)
    total += stats.weights[static_cast<std::size_t>(i)];
  EXPECT_GT(extra_metal / total, 0.5);
}

TEST(Statistics, SampleTypeFollowsWeights) {
  DefectStatistics stats;
  stats.weights = {};
  stats.weight(DefectType::kExtraPoly) = 1.0;
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(stats.sample_type(rng), DefectType::kExtraPoly);
}

TEST(Statistics, SampleSizeFollowsFieldChanges) {
  // A change to any size field must reach the very next draw, and the
  // draws stay those of Rng::power_law.
  DefectStatistics stats;
  util::Rng rng(3), reference(3);
  const struct {
    double min, max, exponent;
  } kFields[] = {{0.5, 20.0, 3.0}, {0.5, 40.0, 3.0}, {1.0, 40.0, 3.0},
                 {1.0, 40.0, 1.0}, {1.0, 40.0, 2.5}, {0.5, 20.0, 3.0}};
  for (const auto& f : kFields) {
    stats.size_min = f.min;
    stats.size_max = f.max;
    stats.size_exponent = f.exponent;
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(stats.sample_size(rng),
                reference.power_law(f.min, f.max, f.exponent));
  }
  stats.size_min = 0.0;
  EXPECT_THROW(stats.sample_size(rng), std::invalid_argument);
}

TEST(Statistics, SampleTypeKeepsWeightChecks) {
  DefectStatistics stats;
  util::Rng rng(5);
  stats.weight(DefectType::kExtraVia) = -1.0;
  EXPECT_THROW(stats.sample_type(rng), std::invalid_argument);
  stats.weights = {};
  EXPECT_THROW(stats.sample_type(rng), std::invalid_argument);
}

TEST(SampleDefect, UniformOverArea) {
  DefectStatistics stats;
  util::Rng rng(2);
  const Rect area{10, 20, 30, 40};
  for (int i = 0; i < 1000; ++i) {
    const Defect d = sample_defect(stats, area, rng);
    EXPECT_TRUE(area.contains(d.center));
    EXPECT_GE(d.size, stats.size_min);
    EXPECT_LE(d.size, stats.size_max);
  }
}

TEST(SampleDefect, SamplerDrawsWhatSampleDefectDraws) {
  // The sampler fixes the weights' sum and the size law's constants at
  // construction; its draws match one-shot sample_defect calls on the
  // same stream, bit for bit.
  DefectStatistics stats;
  const Rect area{-3.5, 2.0, 120.25, 77.0};
  const DefectSampler sample(stats, area);
  util::Rng a(11), b(11);
  for (int i = 0; i < 5000; ++i) {
    const Defect x = sample(a);
    const Defect y = sample_defect(stats, area, b);
    ASSERT_EQ(x.type, y.type) << i;
    ASSERT_EQ(x.center.x, y.center.x) << i;
    ASSERT_EQ(x.center.y, y.center.y) << i;
    ASSERT_EQ(x.size, y.size) << i;
  }
  stats.size_min = 0.0;
  EXPECT_THROW(DefectSampler(stats, area), std::invalid_argument);
}

/// Hand-built two-trunk cell: nets "a" and "b" as parallel metal1 wires
/// 2.4 um apart (track pitch), with taps at both ends of each.
CellLayout two_trunk_cell() {
  CellLayout cell("trunks");
  cell.add_shape({Layer::kMetal1, Rect{0, 0.0, 50, 1.2}, "a"});
  cell.add_shape({Layer::kMetal1, Rect{0, 2.4, 50, 3.6}, "b"});
  cell.add_tap({"a", "pin", 0, {1, 0.6}});
  cell.add_tap({"a", "D1", 0, {49, 0.6}});
  cell.add_tap({"b", "pin", 0, {1, 3.0}});
  cell.add_tap({"b", "D2", 0, {49, 3.0}});
  return cell;
}

TEST(Analyze, ExtraMetalBridgingTwoTrunksIsShort) {
  const CellLayout cell = two_trunk_cell();
  const DefectAnalyzer analyzer(cell, {});
  // Size 4 um centred between the trunks touches both.
  const auto f = analyzer.analyze(
      {DefectType::kExtraMetal1, {25.0, 1.8}, 4.0});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kShort);
  EXPECT_EQ(f->nets, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(f->material, fault::BridgeMaterial::kMetal);
}

TEST(Analyze, SmallDefectBetweenTrunksIsHarmless) {
  const CellLayout cell = two_trunk_cell();
  const DefectAnalyzer analyzer(cell, {});
  EXPECT_FALSE(
      analyzer.analyze({DefectType::kExtraMetal1, {25.0, 1.8}, 1.0})
          .has_value());
}

TEST(Analyze, ExtraMetalOnSingleNetIsHarmless) {
  const CellLayout cell = two_trunk_cell();
  const DefectAnalyzer analyzer(cell, {});
  EXPECT_FALSE(
      analyzer.analyze({DefectType::kExtraMetal1, {25.0, 0.6}, 1.0})
          .has_value());
}

TEST(Analyze, WrongLayerDefectIsHarmless) {
  const CellLayout cell = two_trunk_cell();
  const DefectAnalyzer analyzer(cell, {});
  EXPECT_FALSE(
      analyzer.analyze({DefectType::kExtraPoly, {25.0, 1.8}, 4.0})
          .has_value());
}

TEST(Analyze, MissingMetalCutsTrunkIntoOpen) {
  const CellLayout cell = two_trunk_cell();
  const DefectAnalyzer analyzer(cell, {});
  // 2 um missing-metal spot centred on trunk "a" spans its full height.
  const auto f = analyzer.analyze(
      {DefectType::kMissingMetal1, {25.0, 0.6}, 2.0});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kOpen);
  EXPECT_EQ(f->nets, (std::vector<std::string>{"a"}));
  // The pin keeps the node; D1 sits on the stranded side.
  ASSERT_EQ(f->isolated_taps.size(), 1u);
  EXPECT_EQ(f->isolated_taps[0].device, "D1");
}

TEST(Analyze, PartialNickDoesNotOpen) {
  const CellLayout cell = two_trunk_cell();
  const DefectAnalyzer analyzer(cell, {});
  // 0.8 um spot nicks the 1.2 um wire without severing it.
  const auto f = analyzer.analyze(
      {DefectType::kMissingMetal1, {25.0, 0.2}, 0.8});
  EXPECT_FALSE(f.has_value());
}

/// Cell with a metal1 wire crossing over a poly wire (different nets).
CellLayout crossing_cell() {
  CellLayout cell("crossing");
  cell.add_shape({Layer::kMetal1, Rect{0, 4, 20, 5.2}, "m"});
  cell.add_shape({Layer::kPoly, Rect{9, 0, 10, 10}, "p"});
  cell.add_tap({"m", "pin", 0, {1, 4.6}});
  cell.add_tap({"p", "pin", 0, {9.5, 0.5}});
  return cell;
}

TEST(Analyze, ThickOxidePinholeAtCrossing) {
  const CellLayout cell = crossing_cell();
  const DefectAnalyzer analyzer(cell, {});
  const auto f = analyzer.analyze(
      {DefectType::kThickOxidePinhole, {9.5, 4.6}, 0.5});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kThickOxidePinhole);
  EXPECT_EQ(f->nets, (std::vector<std::string>{"m", "p"}));
}

TEST(Analyze, ThickOxideAwayFromCrossingHarmless) {
  const CellLayout cell = crossing_cell();
  const DefectAnalyzer analyzer(cell, {});
  EXPECT_FALSE(analyzer
                   .analyze({DefectType::kThickOxidePinhole, {3.0, 4.6}, 0.5})
                   .has_value());
}

TEST(Analyze, ExtraContactAtCrossing) {
  const CellLayout cell = crossing_cell();
  const DefectAnalyzer analyzer(cell, {});
  const auto f = analyzer.analyze(
      {DefectType::kExtraContact, {9.5, 4.6}, 1.0});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kExtraContact);
  EXPECT_EQ(f->nets, (std::vector<std::string>{"m", "p"}));
}

/// Transistor-like cell: S/D diffusions with a gate poly between them.
CellLayout transistor_cell() {
  CellLayout cell("mos");
  cell.add_shape({Layer::kActive, Rect{0, 0, 2, 4}, "s"});
  cell.add_shape({Layer::kActive, Rect{3, 0, 5, 4}, "d"});
  cell.add_shape({Layer::kPoly, Rect{2, -1, 3, 5}, "g"});
  cell.add_mos_region({"M1", Rect{2, 0, 3, 4}, "g", "s", "d", false});
  cell.add_tap({"s", "M1", 2, {1, 2}});
  cell.add_tap({"d", "M1", 0, {4, 2}});
  cell.add_tap({"g", "M1", 1, {2.5, 4.5}});
  return cell;
}

TEST(Analyze, GateOxidePinholeInChannel) {
  const CellLayout cell = transistor_cell();
  const DefectAnalyzer analyzer(cell, {});
  const auto f = analyzer.analyze(
      {DefectType::kGateOxidePinhole, {2.5, 2.0}, 0.5});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kGateOxidePinhole);
  EXPECT_EQ(f->device, "M1");
  EXPECT_FALSE(analyzer
                   .analyze({DefectType::kGateOxidePinhole, {1.0, 2.0}, 0.5})
                   .has_value());
}

TEST(Analyze, ExtraActiveAcrossChannelIsShortedDevice) {
  const CellLayout cell = transistor_cell();
  const DefectAnalyzer analyzer(cell, {});
  // Spot bridging s and d while overlapping the gate poly.
  const auto f = analyzer.analyze(
      {DefectType::kExtraActive, {2.5, 2.0}, 3.0});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kShortedDevice);
  EXPECT_EQ(f->device, "M1");
}

TEST(Analyze, ExtraActiveAwayFromPolyIsDiffusionShort) {
  CellLayout cell("diff");
  cell.add_shape({Layer::kActive, Rect{0, 0, 2, 4}, "s"});
  cell.add_shape({Layer::kActive, Rect{3, 0, 5, 4}, "d"});
  cell.add_tap({"s", "pin", 0, {1, 2}});
  cell.add_tap({"d", "pin", 0, {4, 2}});
  const DefectAnalyzer analyzer(cell, {});
  const auto f = analyzer.analyze(
      {DefectType::kExtraActive, {2.5, 2.0}, 3.0});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kShort);
  EXPECT_EQ(f->material, fault::BridgeMaterial::kDiffusion);
}

TEST(Analyze, NewDeviceWhenBridgingUnderForeignPoly) {
  // Two diffusions under a poly line that is NOT the gate of a
  // transistor between them -> parasitic new device.
  CellLayout cell("newdev");
  cell.add_shape({Layer::kActive, Rect{0, 0, 2, 4}, "x"});
  cell.add_shape({Layer::kActive, Rect{3, 0, 5, 4}, "y"});
  cell.add_shape({Layer::kPoly, Rect{2, -1, 3, 5}, "clk"});
  cell.add_tap({"x", "pin", 0, {1, 2}});
  cell.add_tap({"y", "pin", 0, {4, 2}});
  cell.add_tap({"clk", "pin", 0, {2.5, 4.5}});
  const DefectAnalyzer analyzer(cell, {});
  const auto f = analyzer.analyze(
      {DefectType::kExtraActive, {2.5, 2.0}, 3.0});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kNewDevice);
  EXPECT_EQ(f->gate_net, "clk");
  EXPECT_EQ(f->nets, (std::vector<std::string>{"x", "y"}));
}

TEST(Analyze, JunctionPinholeLeaksToSubstrateOrWell) {
  CellLayout cell("jp");
  cell.add_shape({Layer::kActive, Rect{0, 0, 2, 4}, "n1"});
  cell.add_shape({Layer::kActive, Rect{0, 10, 2, 14}, "n2"});
  cell.add_nwell(Rect{-1, 9, 3, 15});
  cell.add_tap({"n1", "pin", 0, {1, 2}});
  cell.add_tap({"n2", "pin", 0, {1, 12}});
  const DefectAnalyzer analyzer(cell, {});
  const auto sub = analyzer.analyze(
      {DefectType::kJunctionPinhole, {1.0, 2.0}, 0.5});
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->kind, FaultKind::kJunctionPinhole);
  EXPECT_FALSE(sub->to_vdd);
  const auto well = analyzer.analyze(
      {DefectType::kJunctionPinhole, {1.0, 12.0}, 0.5});
  ASSERT_TRUE(well.has_value());
  EXPECT_TRUE(well->to_vdd);
}

TEST(Analyze, MissingContactOpensRiser) {
  // Metal1 pad -- contact -- poly pad; killing the contact severs them.
  CellLayout cell("mc");
  cell.add_shape({Layer::kMetal1, Rect{0, 0, 2, 2}, "a"});
  cell.add_shape({Layer::kPoly, Rect{0, 0, 2, 2}, "a"});
  cell.add_shape({Layer::kContact, Rect{0.6, 0.6, 1.4, 1.4}, "a"});
  cell.add_tap({"a", "pin", 0, {1, 1}, Layer::kMetal1});
  cell.add_tap({"a", "M1", 1, {1.0, 0.1}, Layer::kPoly});  // gate side
  const DefectAnalyzer analyzer(cell, {});
  const auto f = analyzer.analyze(
      {DefectType::kMissingContact, {1.0, 1.0}, 1.5});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kOpen);
  ASSERT_EQ(f->isolated_taps.size(), 1u);
  EXPECT_EQ(f->isolated_taps[0].device, "M1");
}

TEST(Analyze, OpenNetFollowsHitOrderNotShapeOrder) {
  // Two metal1 wires, "b" added before "a", both severed by one
  // missing-metal spot. Nets are tried for an open in hit order, and a
  // hit's place is the first 5 um hit-order cell it shares with the
  // spot: "a" starts in the spot's bottom row, "b" two rows up, so "a"
  // is tried first although "b" has the lower shape index.
  CellLayout cell("order");
  cell.add_shape({Layer::kMetal1, Rect{0, 12, 20, 13}, "b"});
  cell.add_shape({Layer::kMetal1, Rect{0, 2, 20, 3}, "a"});
  cell.add_tap({"b", "pin", 0, {1, 12.5}});
  cell.add_tap({"b", "D2", 0, {19, 12.5}});
  cell.add_tap({"a", "pin", 0, {1, 2.5}});
  cell.add_tap({"a", "D1", 0, {19, 2.5}});
  const DefectAnalyzer analyzer(cell, {});
  const auto f =
      analyzer.analyze({DefectType::kMissingMetal1, {10.0, 7.5}, 12.0});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kOpen);
  EXPECT_EQ(f->nets, (std::vector<std::string>{"a"}));
  ASSERT_EQ(f->isolated_taps.size(), 1u);
  EXPECT_EQ(f->isolated_taps[0].device, "D1");
}

// Open extraction groups a net's taps by what a missing-material spot
// leaves of its wiring.
TEST(Extract, TapGroupsSplitByRemoval) {
  // Net "a": two pads joined by a bridge; cutting the bridge separates
  // the taps, a nick in it does not. Without a pin the first of the
  // two equal groups keeps the node.
  CellLayout cell("c");
  cell.add_shape({Layer::kMetal1, Rect{0, 0, 2, 1}, "a"});    // left pad
  cell.add_shape({Layer::kMetal1, Rect{1.5, 0, 6, 1}, "a"});  // bridge
  cell.add_shape({Layer::kMetal1, Rect{5.5, 0, 8, 1}, "a"});  // right pad
  cell.add_tap({"a", "D1", 0, {1.0, 0.5}});
  cell.add_tap({"a", "D2", 0, {7.0, 0.5}});
  const DefectAnalyzer analyzer(cell, {});
  EXPECT_FALSE(
      analyzer.analyze({DefectType::kMissingMetal1, {4.0, 0.2}, 0.3}));
  const auto f =
      analyzer.analyze({DefectType::kMissingMetal1, {4.0, 0.5}, 1.5});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kOpen);
  ASSERT_EQ(f->isolated_taps.size(), 1u);
  EXPECT_EQ(f->isolated_taps[0].device, "D2");
}

TEST(Extract, IsolatedTapFormsOwnGroup) {
  // A spot that takes all the material under D1 strands it alone.
  CellLayout cell("c");
  cell.add_shape({Layer::kMetal1, Rect{0, 0, 6, 1}, "a"});
  cell.add_tap({"a", "pin", 0, {0.5, 0.5}});
  cell.add_tap({"a", "D1", 0, {5.5, 0.5}});
  const DefectAnalyzer analyzer(cell, {});
  const auto f =
      analyzer.analyze({DefectType::kMissingMetal1, {5.5, 0.5}, 2.0});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FaultKind::kOpen);
  EXPECT_EQ(f->nets, (std::vector<std::string>{"a"}));
  ASSERT_EQ(f->isolated_taps.size(), 1u);
  EXPECT_EQ(f->isolated_taps[0].device, "D1");
}

TEST(Analyze, HarmlessSizeIsTheClosestGapBetweenNets) {
  // A 20 x 20 array of 1 um net-a squares at 3 um pitch and one 0.3 um
  // net-b square slid along its rows, with a far net-a square that
  // stretches the cell a little more each time, so the closest pair
  // lands on both sides of the gap search's bin edges. The harmless
  // size is that pair's gap (capped at 2 um), less a rounding margin,
  // wherever the pair sits; same-net neighbours never count.
  for (int k = 0; k < 300; ++k) {
    CellLayout cell("array");
    for (int i = 0; i < 20; ++i)
      for (int j = 0; j < 20; ++j)
        cell.add_shape({Layer::kMetal1, Rect{3.0 * i, 3.0 * j, 3.0 * i + 1,
                                             3.0 * j + 1},
                        "a"});
    const double stretch = 60.0 + 0.07 * (k % 41);
    cell.add_shape({Layer::kMetal1, Rect{stretch, 0, stretch + 1, 1}, "a"});
    const double x = 0.191 * k;
    const double y = 3.0 * (k % 19) + 0.35;
    const Rect b{x, y, x + 0.3, y + 0.3};
    cell.add_shape({Layer::kMetal1, b, "b"});
    double gap = 2.0;
    for (const auto& shape : cell.shapes())
      if (shape.net == "a")
        gap = std::min(gap, std::max({b.x_lo - shape.rect.x_hi,
                                      shape.rect.x_lo - b.x_hi,
                                      b.y_lo - shape.rect.y_hi,
                                      shape.rect.y_lo - b.y_hi, 0.0}));
    const DefectAnalyzer analyzer(cell, {});
    const double harmless = analyzer.harmless_below(DefectType::kExtraMetal1);
    EXPECT_LE(harmless, gap) << k;
    EXPECT_GE(harmless, gap - 1e-9) << k;
    // An empty layer has no pair below the cap; other types get 0.
    EXPECT_NEAR(analyzer.harmless_below(DefectType::kExtraMetal2), 2.0, 1e-9);
    EXPECT_EQ(analyzer.harmless_below(DefectType::kMissingMetal1), 0.0);
  }
}

TEST(Analyze, Bank256ConstructionPeakStaysUnder200MB) {
  // The analyzer's spatial index grows with the shapes, not with the
  // bounding box: building it for the 256-slice bank (133,000 x
  // 3,400 um) raises this process's peak resident set by less than
  // 200 MB.
  auto peak_mb = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  };
  flashadc::BankOptions bank;
  bank.size = 256;
  const CellLayout cell = flashadc::build_bank_layout(bank);
  const double before = peak_mb();
  const DefectAnalyzer analyzer(cell, {.vdd_net = "vdda"});
  EXPECT_LT(peak_mb() - before, 200.0);
  EXPECT_GT(analyzer.harmless_below(DefectType::kExtraMetal1), 0.0);
}

// --------------------------------------------------------------------
// End-to-end campaign on a synthesized cell.

layout::CellLayout synthesized_inverter() {
  spice::Netlist n;
  spice::MosModel m;
  n.add_mosfet("MN", spice::MosType::kNmos, "out", "in", "0", "0", 4e-6,
               1e-6, m);
  n.add_mosfet("MP", spice::MosType::kPmos, "out", "in", "vdd", "vdd", 8e-6,
               1e-6, m);
  layout::SynthOptions opt;
  opt.pins = {"in", "out", "vdd", "0"};
  return layout::synthesize_layout(n, "inv", opt);
}

TEST(Campaign, DeterministicForSeed) {
  const auto cell = synthesized_inverter();
  CampaignOptions opt;
  opt.defect_count = 20000;
  opt.seed = 7;
  const auto a = run_campaign(cell, opt);
  const auto b = run_campaign(cell, opt);
  EXPECT_EQ(a.faults_extracted, b.faults_extracted);
  EXPECT_EQ(a.classes.size(), b.classes.size());
}

TEST(Campaign, YieldAndAccountingConsistent) {
  const auto cell = synthesized_inverter();
  CampaignOptions opt;
  opt.defect_count = 50000;
  opt.seed = 11;
  const auto r = run_campaign(cell, opt);
  EXPECT_EQ(r.defects_sprinkled, 50000u);
  EXPECT_GT(r.faults_extracted, 0u);
  EXPECT_LT(r.fault_yield(), 0.5);
  // Class counts must add up to the fault count.
  std::size_t class_total = 0;
  for (const auto& c : r.classes) class_total += c.count;
  EXPECT_EQ(class_total, r.faults_extracted);
  // Per-kind fault counts add up too.
  std::size_t kind_total = 0;
  for (auto c : r.faults_by_kind) kind_total += c;
  EXPECT_EQ(kind_total, r.faults_extracted);
  // Sprinkle counters cover every defect.
  std::size_t type_total = 0;
  for (auto c : r.defects_by_type) type_total += c;
  EXPECT_EQ(type_total, r.defects_sprinkled);
}

// Fault collapsing (paper fig. 1) happens inside run_campaign: one class
// per fault key, sorted by descending count, ties in first-occurrence
// order. The reference replays the one-block sprinkle spot by spot
// (block 0 draws from Rng(seed).split(0)) and collapses it by key.
TEST(Collapse, GroupsAndSortsByCount) {
  const auto cell = synthesized_inverter();
  CampaignOptions opt;
  opt.defect_count = 8000;  // fits one sprinkle block (8192 spots)
  opt.seed = 5;
  const auto r = run_campaign(cell, opt);

  const DefectAnalyzer analyzer(cell, {});
  const DefectSampler sample(opt.statistics, cell.bounding_box());
  util::Rng rng = util::Rng(opt.seed).split(0);
  std::vector<std::string> keys;
  std::vector<std::size_t> counts;
  std::size_t faults = 0;
  for (std::size_t n = 0; n < opt.defect_count; ++n) {
    const auto fault = analyzer.analyze(sample(rng));
    if (!fault) continue;
    ++faults;
    const std::string key = fault->key();
    const auto at = std::find(keys.begin(), keys.end(), key);
    if (at == keys.end()) {
      keys.push_back(key);
      counts.push_back(1);
    } else {
      ++counts[static_cast<std::size_t>(at - keys.begin())];
    }
  }
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return counts[a] > counts[b];
                   });

  EXPECT_EQ(r.faults_extracted, faults);
  ASSERT_EQ(r.classes.size(), keys.size());
  ASSERT_GT(keys.size(), 3u);
  bool tie = false;
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(r.classes[i].representative.key(), keys[order[i]]) << i;
    EXPECT_EQ(r.classes[i].count, counts[order[i]]) << i;
    if (i > 0) tie = tie || counts[order[i - 1]] == counts[order[i]];
  }
  EXPECT_TRUE(tie) << "no tie exercises the first-occurrence order";
}

TEST(Campaign, ShortsDominateOnSynthesizedCell) {
  const auto cell = synthesized_inverter();
  CampaignOptions opt;
  opt.defect_count = 100000;
  opt.seed = 13;
  const auto r = run_campaign(cell, opt);
  const auto shorts =
      r.faults_by_kind[static_cast<std::size_t>(FaultKind::kShort)];
  EXPECT_GT(static_cast<double>(shorts) /
                static_cast<double>(r.faults_extracted),
            0.5);
}

TEST(Campaign, OpensRareInFaultsButRicherInClasses) {
  // The paper's Table 1: opens are 0.03% of faults but 5.1% of classes.
  // Directionally: the open share among classes must exceed its share
  // among faults.
  const auto cell = synthesized_inverter();
  CampaignOptions opt;
  opt.defect_count = 200000;
  opt.seed = 17;
  const auto r = run_campaign(cell, opt);
  const auto open_idx = static_cast<std::size_t>(FaultKind::kOpen);
  ASSERT_GT(r.faults_by_kind[open_idx], 0u);
  const double fault_share = static_cast<double>(r.faults_by_kind[open_idx]) /
                             static_cast<double>(r.faults_extracted);
  const double class_share =
      static_cast<double>(r.classes_by_kind[open_idx]) /
      static_cast<double>(r.classes.size());
  EXPECT_GT(class_share, fault_share);
}

/// FNV-1a over a byte string, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct PinnedCampaign {
  const char* macro;
  std::function<CellLayout()> build;
  std::uint64_t seed;
  const char* vdd_net;
  /// (key, count) of every class, in class order.
  std::uint64_t classes_digest;
  std::size_t faults_extracted;
  /// defects_by_type, in DefectType order.
  std::uint64_t types_digest;
};

// Oracle for the whole defect layer (sampling, spatial query, fault
// extraction, open analysis, collapsing, class order): digests of
// 60k-defect campaigns pinned from an independent earlier
// implementation. Any change to a draw, a fault, a class key, a count
// or the order of classes shows up here, not only a change between two
// runs of the same code.
TEST(Campaign, PinnedClassesOnEveryMacro) {
  const std::vector<PinnedCampaign> pinned = {
      {"comparator", [] { return flashadc::build_comparator_layout(); }, 101,
       "vdda", 0x95f193650d507bc6ull, 668,
       0x2f2d949b9846325full},
      {"ladder", [] { return flashadc::build_ladder_layout(); }, 102, "vdda",
       0x310a1062fe48cd56ull, 643,
       0x4eb16f4e32fd93c5ull},
      {"biasgen", [] { return flashadc::build_biasgen_layout(); }, 103,
       "vdda", 0x5462effa3de4acb6ull, 290,
       0x7429b3abab83df19ull},
      {"clockgen", [] { return flashadc::build_clockgen_layout(); }, 104,
       "vddd", 0x08d6cb1d08abb53full, 582,
       0xfdf13d4c0fc97f75ull},
      {"decoder", [] { return flashadc::build_decoder_layout(); }, 105,
       "vddd", 0x91ebe705b39cf2f2ull, 749,
       0x1320512ce8a11eceull},
      {"bank-8",
       [] {
         flashadc::BankOptions bank;
         bank.size = 8;
         return flashadc::build_bank_layout(bank);
       },
       106, "vdda", 0x4f7c6e6dbd8701ebull, 870,
       0x7f235452560ccd63ull},
  };
  for (const auto& p : pinned) {
    CampaignOptions opt;
    opt.defect_count = 60000;
    opt.seed = p.seed;
    opt.vdd_net = p.vdd_net;
    const auto r = run_campaign(p.build(), opt);
    std::uint64_t classes = 0xcbf29ce484222325ull;
    for (const auto& cls : r.classes)
      classes = fnv1a(classes, cls.representative.key() + '\n' +
                                   std::to_string(cls.count) + '\n');
    std::uint64_t types = 0xcbf29ce484222325ull;
    for (std::size_t n : r.defects_by_type)
      types = fnv1a(types, std::to_string(n) + ',');
    EXPECT_EQ(classes, p.classes_digest) << p.macro;
    EXPECT_EQ(r.faults_extracted, p.faults_extracted) << p.macro;
    EXPECT_EQ(types, p.types_digest) << p.macro;
  }
}

/// Runs `fn` with the global pool at `threads`, restoring the default
/// afterwards.
template <typename Fn>
auto with_threads(unsigned threads, Fn&& fn) {
  util::ThreadPool::set_global_thread_count(threads);
  struct Restore {
    ~Restore() { util::ThreadPool::set_global_thread_count(0); }
  } restore;
  return fn();
}

/// (key, count) of every class in class order, then the per-type
/// sprinkled and faulting counts and the fault total.
std::uint64_t sprinkle_digest(const CampaignResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& cls : r.classes)
    h = fnv1a(h, cls.representative.key() + '\n' +
                     std::to_string(cls.count) + '\n');
  for (std::size_t n : r.defects_by_type) h = fnv1a(h, std::to_string(n) + ',');
  for (std::size_t n : r.faulting_by_type) h = fnv1a(h, std::to_string(n) + ',');
  return fnv1a(h, std::to_string(r.faults_extracted));
}

struct PinnedSprinkle {
  const char* macro;
  std::function<CellLayout()> build;
  const char* vdd_net;
  std::uint64_t seed;
  double cluster_fraction;
  std::uint64_t digest;
};

/// 60k-spot sprinkles pinned before the sprinkle settled spots by size:
/// the sprinkle may skip work, never change a draw, a class, a count or
/// the class order, at any thread count.
void expect_pinned(const std::vector<PinnedSprinkle>& pinned) {
  for (const auto& p : pinned) {
    const CellLayout cell = p.build();
    const DefectAnalyzer analyzer(cell, {.vdd_net = p.vdd_net});
    CampaignOptions opt;
    opt.defect_count = 60000;
    opt.seed = p.seed;
    opt.vdd_net = p.vdd_net;
    opt.statistics.clustering.cluster_fraction = p.cluster_fraction;
    for (unsigned threads : {1u, 4u}) {
      const std::uint64_t digest = sprinkle_digest(
          with_threads(threads, [&] { return run_campaign(analyzer, opt); }));
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llx",
                    static_cast<unsigned long long>(digest));
      EXPECT_EQ(digest, p.digest)
          << p.macro << " seed " << p.seed << " clusters "
          << p.cluster_fraction << " threads " << threads << ": " << hex;
    }
  }
}

CellLayout bank8_layout() {
  flashadc::BankOptions bank;
  bank.size = 8;
  return flashadc::build_bank_layout(bank);
}

TEST(SprinklePin, FiveMacrosAndBank8AtTwoSeeds) {
  const auto comparator = [] { return flashadc::build_comparator_layout(); };
  const auto ladder = [] { return flashadc::build_ladder_layout(); };
  const auto biasgen = [] { return flashadc::build_biasgen_layout(); };
  const auto clockgen = [] { return flashadc::build_clockgen_layout(); };
  const auto decoder = [] { return flashadc::build_decoder_layout(); };
  expect_pinned({
      {"comparator", comparator, "vdda", 1, 0.0, 0xfddb1fa65cd390d9ull},
      {"comparator", comparator, "vdda", 1995, 0.0, 0x8d25c1da8fe30c81ull},
      {"ladder", ladder, "vdda", 1, 0.0, 0x465457af0343cb95ull},
      {"ladder", ladder, "vdda", 1995, 0.0, 0xd364593c170d244full},
      {"biasgen", biasgen, "vdda", 1, 0.0, 0x47011703694fe0a4ull},
      {"biasgen", biasgen, "vdda", 1995, 0.0, 0xaace4106eda4390eull},
      {"clockgen", clockgen, "vddd", 1, 0.0, 0x39b0e800477c4ef4ull},
      {"clockgen", clockgen, "vddd", 1995, 0.0, 0x2081fc442bb84709ull},
      {"decoder", decoder, "vddd", 1, 0.0, 0xdd43eefb64ec073bull},
      {"decoder", decoder, "vddd", 1995, 0.0, 0xd2b1a0f7ae438e33ull},
      {"bank-8", bank8_layout, "vdda", 1, 0.0, 0xa98e80e6b9d6e798ull},
      {"bank-8", bank8_layout, "vdda", 1995, 0.0, 0x203413fbbf0034abull},
  });
}

TEST(SprinklePin, ClusteredSprinkle) {
  // Cluster members take the seed spot's type after the spot is drawn,
  // so the size rule must read the type the member ends up with.
  expect_pinned({{"bank-8", bank8_layout, "vdda", 1995, 0.2,
                  0x7416a0782034c4ccull}});
}

}  // namespace
}  // namespace dot::defect

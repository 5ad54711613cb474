// Property-based tests of the defect simulator: extracted faults must
// always be well-formed (existing nets/devices, sorted multi-net shorts,
// non-empty open partitions), campaigns must be deterministic per seed,
// the fault model must apply cleanly to every extracted class, and no
// spot narrower than its layer's harmless size may bridge two nets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "defect/analyze.hpp"
#include "defect/simulate.hpp"
#include "fault/model.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "layout/synth.hpp"
#include "spice/netlist.hpp"
#include "util/rng.hpp"

namespace dot::defect {
namespace {

spice::Netlist sample_circuit() {
  spice::Netlist n;
  spice::MosModel m;
  n.add_mosfet("MN1", spice::MosType::kNmos, "out", "in", "0", "0", 4e-6,
               1e-6, m);
  n.add_mosfet("MP1", spice::MosType::kPmos, "out", "in", "vdd", "vdd",
               8e-6, 1e-6, m);
  n.add_mosfet("MN2", spice::MosType::kNmos, "out2", "out", "0", "0", 4e-6,
               1e-6, m);
  n.add_mosfet("MP2", spice::MosType::kPmos, "out2", "out", "vdd", "vdd",
               8e-6, 1e-6, m);
  n.add_resistor("R1", "out2", "fb", 5e3);
  n.add_capacitor("C1", "fb", "0", 1e-12);
  return n;
}

class DefectPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DefectPropertyTest, ExtractedFaultsAreWellFormed) {
  const auto netlist = sample_circuit();
  layout::SynthOptions synth;
  synth.pins = {"in", "out2", "vdd", "0"};
  const auto cell = layout::synthesize_layout(netlist, "cell", synth);
  const DefectAnalyzer analyzer(cell, {.vdd_net = "vdd"});
  const DefectStatistics stats;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846ull);
  const auto nets = cell.nets();

  for (int i = 0; i < 20000; ++i) {
    const Defect defect = sample_defect(stats, cell.bounding_box(), rng);
    const auto fault = analyzer.analyze(defect);
    if (!fault) continue;
    // Net references must exist in the layout; shorts are sorted and
    // duplicate free.
    for (const auto& net : fault->nets)
      EXPECT_NE(std::find(nets.begin(), nets.end(), net), nets.end())
          << net;
    EXPECT_TRUE(std::is_sorted(fault->nets.begin(), fault->nets.end()));
    EXPECT_EQ(std::adjacent_find(fault->nets.begin(), fault->nets.end()),
              fault->nets.end());
    switch (fault->kind) {
      case fault::FaultKind::kShort:
      case fault::FaultKind::kExtraContact:
      case fault::FaultKind::kThickOxidePinhole:
        EXPECT_GE(fault->nets.size(), 2u);
        break;
      case fault::FaultKind::kJunctionPinhole:
        EXPECT_EQ(fault->nets.size(), 1u);
        break;
      case fault::FaultKind::kOpen:
        EXPECT_EQ(fault->nets.size(), 1u);
        EXPECT_FALSE(fault->isolated_taps.empty());
        break;
      case fault::FaultKind::kGateOxidePinhole:
      case fault::FaultKind::kShortedDevice:
        EXPECT_NE(netlist.find_device(fault->device), nullptr);
        break;
      case fault::FaultKind::kNewDevice:
        EXPECT_EQ(fault->nets.size(), 2u);
        EXPECT_FALSE(fault->gate_net.empty());
        break;
    }
  }
}

TEST_P(DefectPropertyTest, EveryClassAppliesToTheNetlist) {
  const auto netlist = sample_circuit();
  layout::SynthOptions synth;
  synth.pins = {"in", "out2", "vdd", "0"};
  const auto cell = layout::synthesize_layout(netlist, "cell", synth);
  CampaignOptions opt;
  opt.defect_count = 30000;
  opt.seed = static_cast<std::uint64_t>(GetParam());
  opt.vdd_net = "vdd";
  const auto result = run_campaign(cell, opt);

  fault::FaultModelOptions models;
  models.vdd_net = "vdd";
  for (const auto& cls : result.classes) {
    for (int v = 0; v < fault::model_variant_count(cls.representative);
         ++v) {
      // Must not throw, must not mutate the good netlist, and must
      // change SOMETHING (devices added or terminals moved).
      const std::size_t before = netlist.devices().size();
      const auto faulty =
          fault::apply_fault(netlist, cls.representative, models, v);
      EXPECT_EQ(netlist.devices().size(), before);
      const bool grew = faulty.devices().size() > before;
      const bool renoded = faulty.node_count() > netlist.node_count();
      bool moved = false;
      for (std::size_t d = 0; d < before && !moved; ++d)
        moved = spice::Netlist::terminal_nodes(faulty.devices()[d]) !=
                spice::Netlist::terminal_nodes(netlist.devices()[d]);
      EXPECT_TRUE(grew || renoded || moved);
    }
  }
}

TEST_P(DefectPropertyTest, CampaignDeterministicAndConsistent) {
  const auto netlist = sample_circuit();
  const auto cell =
      layout::synthesize_layout(netlist, "cell", layout::SynthOptions{});
  CampaignOptions opt;
  opt.defect_count = 25000;
  opt.seed = static_cast<std::uint64_t>(GetParam()) + 1000;
  const auto a = run_campaign(cell, opt);
  const auto b = run_campaign(cell, opt);
  EXPECT_EQ(a.faults_extracted, b.faults_extracted);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].count, b.classes[i].count);
    EXPECT_EQ(a.classes[i].representative.key(),
              b.classes[i].representative.key());
  }
  // Class counts sum to the fault count, and classes are sorted.
  std::size_t total = 0;
  for (const auto& c : a.classes) total += c.count;
  EXPECT_EQ(total, a.faults_extracted);
  for (std::size_t i = 1; i < a.classes.size(); ++i)
    EXPECT_GE(a.classes[i - 1].count, a.classes[i].count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DefectPropertyTest, ::testing::Range(1, 9));

// The harmless-size rule: an extra-material spot narrower than its
// layer's harmless size (DefectAnalyzer::harmless_below) bridges
// nothing, so the analyzer and the sprinkle settle it without the grid
// query. The oracle here is a linear scan over the layer's shapes with
// the analyzer's footprint and open-interval overlap, sharing neither
// the analyzer's bins nor its gap search.
struct LayerShapes {
  std::vector<layout::Rect> rects;
  std::vector<std::string> nets;

  bool touches_two_nets(const layout::Rect& foot) const {
    const std::string* first = nullptr;
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (!rects[i].intersects(foot)) continue;
      if (first == nullptr)
        first = &nets[i];
      else if (nets[i] != *first)
        return true;
    }
    return false;
  }
};

/// Smallest L-inf gap between two shapes of different nets, by brute
/// force, and the centre of the gap between that pair (-1 when the
/// layer holds fewer than two nets).
struct ClosestPair {
  double gap = -1.0;
  layout::Point center;
};

ClosestPair closest_pair(const LayerShapes& layer) {
  ClosestPair best;
  // The middle of the interval between two ranges, or of their overlap.
  auto mid = [](double a_lo, double a_hi, double b_lo, double b_hi) {
    if (b_lo >= a_hi) return 0.5 * (a_hi + b_lo);
    if (a_lo >= b_hi) return 0.5 * (b_hi + a_lo);
    return 0.5 * (std::max(a_lo, b_lo) + std::min(a_hi, b_hi));
  };
  for (std::size_t i = 0; i < layer.rects.size(); ++i) {
    for (std::size_t j = i + 1; j < layer.rects.size(); ++j) {
      if (layer.nets[i] == layer.nets[j]) continue;
      const layout::Rect& a = layer.rects[i];
      const layout::Rect& b = layer.rects[j];
      const double gap = std::max({b.x_lo - a.x_hi, a.x_lo - b.x_hi,
                                   b.y_lo - a.y_hi, a.y_lo - b.y_hi, 0.0});
      if (best.gap >= 0.0 && gap >= best.gap) continue;
      best.gap = gap;
      best.center = {mid(a.x_lo, a.x_hi, b.x_lo, b.x_hi),
                     mid(a.y_lo, a.y_hi, b.y_lo, b.y_hi)};
    }
  }
  return best;
}

TEST(HarmlessSize, SpotsBelowItBridgeNothingOnEveryMacro) {
  struct Macro {
    const char* name;
    layout::CellLayout cell;
    const char* vdd_net;
  };
  flashadc::BankOptions bank;
  bank.size = 8;
  const std::vector<Macro> macros = {
      {"comparator", flashadc::build_comparator_layout(), "vdda"},
      {"ladder", flashadc::build_ladder_layout(), "vdda"},
      {"biasgen", flashadc::build_biasgen_layout(), "vdda"},
      {"clockgen", flashadc::build_clockgen_layout(), "vddd"},
      {"decoder", flashadc::build_decoder_layout(), "vddd"},
      {"bank-8", flashadc::build_bank_layout(bank), "vdda"},
  };
  const std::pair<DefectType, layout::Layer> extra_types[] = {
      {DefectType::kExtraMetal1, layout::Layer::kMetal1},
      {DefectType::kExtraMetal2, layout::Layer::kMetal2},
      {DefectType::kExtraPoly, layout::Layer::kPoly},
      {DefectType::kExtraActive, layout::Layer::kActive},
  };
  constexpr int kSpots = 12000;
  for (const Macro& m : macros) {
    const DefectAnalyzer analyzer(m.cell, {.vdd_net = m.vdd_net});
    const layout::Rect box = m.cell.bounding_box();
    util::Rng rng(2718);
    for (const auto& [type, layer_id] : extra_types) {
      const std::string where = std::string(m.name) + " defect type " +
                                std::to_string(static_cast<int>(type));
      LayerShapes layer;
      for (const auto& shape : m.cell.shapes()) {
        if (shape.layer != layer_id) continue;
        layer.rects.push_back(shape.rect);
        layer.nets.push_back(shape.net);
      }
      const double harmless = analyzer.harmless_below(type);
      const ClosestPair pair = closest_pair(layer);
      // Never above the true gap, and no more than the rounding margin
      // below it or below the search cap (2 um) that bounds it.
      if (pair.gap >= 0.0) {
        EXPECT_LE(harmless, pair.gap) << where;
        EXPECT_GE(harmless, std::min(pair.gap, 2.0) - 1e-9) << where;
      }
      ASSERT_GT(harmless, 0.0) << where;

      int settled = 0;
      for (int n = 0; n < kSpots; ++n) {
        Defect d;
        d.type = type;
        // Sizes well below, one ulp below, at and one ulp above the
        // harmless size; every fifth spot sits on the closest pair.
        switch (n % 4) {
          case 0: d.size = harmless * rng.uniform(0.4, 1.0); break;
          case 1: d.size = std::nextafter(harmless, 0.0); break;
          case 2: d.size = harmless; break;
          default: d.size = std::nextafter(harmless, 1e9); break;
        }
        if (n % 5 == 0 && pair.gap >= 0.0) {
          const double jitter = 0.25 * harmless;
          d.center = {pair.center.x + rng.uniform(-jitter, jitter),
                      pair.center.y + rng.uniform(-jitter, jitter)};
        } else {
          d.center = {rng.uniform(box.x_lo, box.x_hi),
                      rng.uniform(box.y_lo, box.y_hi)};
        }
        const bool bridges =
            layer.touches_two_nets(layout::Rect::square(d.center, d.size));
        const auto fault = analyzer.analyze(d);
        if (d.size < harmless) {
          ++settled;
          ASSERT_FALSE(bridges) << where << " size " << d.size << " at "
                                << d.center.x << ", " << d.center.y;
          ASSERT_FALSE(fault.has_value()) << where;
        }
        // Every fault the analyzer reports is a bridge the scan sees.
        if (fault) ASSERT_TRUE(bridges) << where;
      }
      EXPECT_EQ(settled, kSpots / 2) << where;

      // A spot a hair wider than the gap, across the closest pair,
      // bridges it: the harmless size is not trivially small.
      if (pair.gap >= 0.0 && pair.gap < 2.0) {
        const Defect across{type, pair.center, pair.gap + 1e-3};
        EXPECT_TRUE(layer.touches_two_nets(
            layout::Rect::square(across.center, across.size)))
            << where;
        EXPECT_TRUE(analyzer.analyze(across).has_value()) << where;
      }
    }
  }
}

}  // namespace
}  // namespace dot::defect

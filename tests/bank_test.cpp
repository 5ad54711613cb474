// Differential property tests for the flat comparator-bank macro: the
// bank campaign diffed against the paper's per-comparator decomposition
// through the equivalence layer (macro/equivalence.hpp).
//
// The contract under test, at column heights 2 / 4 / 8 with a pinned
// seed:
//  - every slice-local (and shared-distribution) fault class that both
//    campaigns resolve produces the SAME detected-at-all verdict in the
//    flat bank as in the single-comparator campaign it decomposes to;
//  - genuinely inter-slice classes (adjacent-tap bridges, trunk
//    couplings) land in their own locality bucket -- never silently
//    folded into a per-slice class -- and carry nonzero weight in every
//    coverage denominator.
#include <gtest/gtest.h>

#include <cmath>

#include "fault/fault.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/campaign.hpp"
#include "flashadc/chip.hpp"
#include "macro/equivalence.hpp"
#include "util/parallel.hpp"

namespace {

using dot::flashadc::BankOptions;
using dot::macro::EquivalenceReport;
using dot::macro::FaultLocality;

/// Pinned campaign configuration: small enough for a test budget, large
/// enough that the likelihood-sorted class list reaches past the shared
/// supply bridges into slice-local and inter-slice defects at every
/// tested size (verified empirically for this seed).
dot::flashadc::CampaignConfig bank_config(int size) {
  dot::flashadc::CampaignConfig config;
  config.macro_selection = "bank";
  config.bank_size = size;
  config.defect_count = 20000;
  config.envelope_samples = 4;
  config.max_classes = 16;
  config.seed = 20260806;
  config.with_noncatastrophic = false;
  return config;
}

EquivalenceReport run_equivalence(int size) {
  const auto config = bank_config(size);
  const auto global = dot::flashadc::run_campaign(config);
  return dot::flashadc::compare_decomposition(config, global.macros.at(0));
}

class BankEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BankEquivalenceTest, SliceLocalVerdictsMatchDecomposition) {
  const EquivalenceReport report = run_equivalence(GetParam());

  ASSERT_FALSE(report.entries.empty());
  ASSERT_GT(report.comparable_classes, 0u);

  // The decomposition claim of the paper: a defect inside one slice's
  // footprint is equivalently tested by the single-comparator campaign.
  // Any comparable class disagreeing on the detected-at-all verdict
  // would falsify it.
  EXPECT_EQ(report.verdict_mismatches, 0u);
  for (const auto& entry : report.entries) {
    if (!entry.comparable()) continue;
    EXPECT_TRUE(entry.verdict_match())
        << "bank class " << entry.composite_key << " (slice " << entry.slice
        << ") detected=" << entry.composite_detection.detected()
        << " but projected class " << entry.projected_key
        << " detected=" << entry.projected_detection.detected();
  }
  EXPECT_DOUBLE_EQ(report.verdict_agreement, 1.0);
}

TEST_P(BankEquivalenceTest, InterSliceClassesFormDistinctBucket) {
  const EquivalenceReport report = run_equivalence(GetParam());

  // Inter-slice coupling faults exist at every size and are never
  // comparable: the single-comparator macro has no counterpart to
  // project them onto.
  EXPECT_GT(report.inter_slice_weight(), 0.0);
  std::size_t inter_slice = 0;
  for (const auto& entry : report.entries) {
    if (entry.locality != FaultLocality::kInterSlice) continue;
    ++inter_slice;
    EXPECT_FALSE(entry.comparable());
    EXPECT_TRUE(entry.projected_key.empty())
        << "inter-slice class " << entry.composite_key
        << " projected onto " << entry.projected_key;
    EXPECT_GE(entry.slice, 0);
    EXPECT_GT(entry.weight, 0.0);
  }
  EXPECT_GT(inter_slice, 0u);

  // The locality buckets plus the unresolved weight partition the full
  // composite population: nothing the decomposition hides leaves the
  // coverage denominator.
  double total = report.unresolved_weight;
  for (const double w : report.locality_weight) {
    EXPECT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Decomposed coverage carries inter-slice + unmappable weight as
  // undetected, so it can never exceed the flat campaign's coverage by
  // more than the verdict-agreement residual (zero here).
  EXPECT_LE(report.decomposed_coverage,
            report.composite_coverage + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ColumnHeights, BankEquivalenceTest,
                         ::testing::Values(2, 4, 8));

// Structural invariants of the generated flat netlist, cheap enough to
// sweep every supported size.
TEST(BankNetlistTest, SharedNetsAndPerSliceOutputsAtEverySize) {
  for (const int size : {2, 4, 8, 16, 32, 64}) {
    BankOptions options;
    options.size = size;
    const auto netlist = dot::flashadc::build_bank_netlist(options);

    // Shared distribution nets appear exactly once.
    for (const char* net : {"vdda", "vin", "clk1", "clk2", "clk3", "vbn",
                            "vbc", "vrefp", "vrefm"})
      EXPECT_TRUE(netlist.find_node(net).has_value())
          << net << " size " << size;

    // Per-slice reference taps, input-trunk taps and output pins.
    for (int k = 0; k < size; ++k) {
      EXPECT_TRUE(
          netlist.find_node(dot::flashadc::bank_tap_net(k)).has_value())
          << "tap " << k << " size " << size;
      const std::string prefix = dot::flashadc::bank_slice_net_prefix(k);
      EXPECT_TRUE(netlist.find_node(prefix + "q").has_value())
          << "output q " << k << " size " << size;
      EXPECT_TRUE(netlist.find_node(prefix + "qb").has_value())
          << "output qb " << k << " size " << size;
      if (k + 1 < size)
        EXPECT_TRUE(
            netlist.find_node(dot::flashadc::bank_input_net(k)).has_value())
            << "input tap " << k << " size " << size;
    }
  }
}

TEST(BankMapperTest, ProjectionsClassifyLocality) {
  BankOptions options;
  options.size = 4;
  const auto mapper = dot::flashadc::bank_slice_mapper(options);

  // A short inside slice 2 projects onto the comparator namespace.
  dot::fault::CircuitFault local;
  local.kind = dot::fault::FaultKind::kShort;
  local.nets = {"s2_inn", "s2_inp"};
  const auto p_local = dot::macro::project_fault(local, mapper);
  EXPECT_EQ(p_local.locality, FaultLocality::kSliceLocal);
  EXPECT_EQ(p_local.slice, 2);
  ASSERT_TRUE(p_local.fault.has_value());
  EXPECT_EQ(p_local.fault->nets,
            (std::vector<std::string>{"inn", "inp"}));

  // An adjacent-tap bridge touches two slices: inter-slice.
  dot::fault::CircuitFault tap_bridge;
  tap_bridge.kind = dot::fault::FaultKind::kShort;
  tap_bridge.nets = {dot::flashadc::bank_tap_net(1),
                     dot::flashadc::bank_tap_net(2)};
  const auto p_tap = dot::macro::project_fault(tap_bridge, mapper);
  EXPECT_EQ(p_tap.locality, FaultLocality::kInterSlice);
  EXPECT_EQ(p_tap.slice, 1);

  // A reference-tap to input-trunk bridge on neighbouring tracks of
  // DIFFERENT slices is inter-slice too.
  dot::fault::CircuitFault track_bridge;
  track_bridge.kind = dot::fault::FaultKind::kShort;
  track_bridge.nets = {dot::flashadc::bank_tap_net(2),
                       dot::flashadc::bank_input_net(1)};
  const auto p_track = dot::macro::project_fault(track_bridge, mapper);
  EXPECT_EQ(p_track.locality, FaultLocality::kInterSlice);

  // A bias-rail bridge only touches shared distribution: every slice
  // sees it, and it exists in the sub-macro under the same names.
  dot::fault::CircuitFault shared;
  shared.kind = dot::fault::FaultKind::kShort;
  shared.nets = {"vbc", "vbn"};
  const auto p_shared = dot::macro::project_fault(shared, mapper);
  EXPECT_EQ(p_shared.locality, FaultLocality::kShared);
  ASSERT_TRUE(p_shared.fault.has_value());
  EXPECT_EQ(p_shared.fault->nets,
            (std::vector<std::string>{"vbc", "vbn"}));

  // The reference-string and input-trunk resistors have no sub-macro
  // counterpart: unmappable hardware the decomposition never tests.
  dot::fault::CircuitFault trunk_short;
  trunk_short.kind = dot::fault::FaultKind::kShortedDevice;
  trunk_short.device = "RIN2";
  EXPECT_EQ(dot::macro::project_fault(trunk_short, mapper).locality,
            FaultLocality::kUnmappable);
}

}  // namespace

namespace dot {
namespace {

// Equivalence-bucket contract at the mapper level: an inter-slice
// bridge class projects to FaultLocality::kInterSlice -- its own
// bucket, never mixed into the slice-local or shared weight -- and chip
// support-macro hardware stays unmappable.
TEST(BankEquivalence, InterSliceClassesKeepTheirOwnBucket) {
  BankOptions opt;
  opt.size = 8;
  const macro::SliceMapper mapper = flashadc::bank_slice_mapper(opt);

  fault::CircuitFault bridge;
  bridge.kind = fault::FaultKind::kShort;
  bridge.nets = {"s0_outp", "s1_outp"};
  const auto projected = macro::project_fault(bridge, mapper);
  EXPECT_EQ(projected.locality, macro::FaultLocality::kInterSlice);
  EXPECT_FALSE(projected.fault.has_value());

  // Chip support-macro hardware: unmappable, also its own bucket.
  flashadc::ChipOptions chip_opt;
  chip_opt.slices = 8;
  fault::CircuitFault dec_bridge;
  dec_bridge.kind = fault::FaultKind::kShort;
  dec_bridge.nets = {"dec0_r0", "dec0_r1"};
  const auto dec_projected = macro::project_fault(
      dec_bridge, flashadc::chip_slice_mapper(chip_opt));
  EXPECT_EQ(dec_projected.locality, macro::FaultLocality::kUnmappable);
}

}  // namespace
}  // namespace dot

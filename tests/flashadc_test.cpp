#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "flashadc/bank.hpp"
#include "flashadc/behavioral.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/campaign.hpp"
#include "flashadc/chip.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/dc_bench.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "flashadc/tech.hpp"
#include "fault/model.hpp"
#include "macro/envelope.hpp"
#include "spice/dc.hpp"
#include "spice/montecarlo.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dot::flashadc {
namespace {

using macro::VoltageSignature;

// ---------------------------------------------------------------- tech

TEST(Tech, LsbMatchesEightBitRange) {
  EXPECT_NEAR(lsb(), (kVrefHi - kVrefLo) / 256.0, 1e-15);
  EXPECT_NEAR(lsb(), 7.8e-3, 0.2e-3);
}

// ---------------------------------------------------------- comparator

TEST(Comparator, NetlistIsConnectedAndBalanced) {
  const auto n = build_comparator_netlist();
  EXPECT_GT(n.devices().size(), 20u);
  EXPECT_NE(n.find_device("M1"), nullptr);
  EXPECT_NE(n.find_device("MW2"), nullptr);
}

TEST(Comparator, LayoutSynthesizesWithPins) {
  const auto cell = build_comparator_layout();
  int pin_taps = 0;
  for (const auto& tap : cell.taps())
    if (tap.device == "pin") ++pin_taps;
  EXPECT_EQ(pin_taps, static_cast<int>(comparator_pins().size()));
  EXPECT_GT(cell.area(), 5000.0);
}

TEST(Comparator, BiasLinesAdjacentNominally) {
  const auto cell = build_comparator_layout();
  auto trunk_y = [&](const std::string& net) {
    double best = -1, y = 0;
    for (const auto& s : cell.shapes())
      if (s.net == net && s.layer == layout::Layer::kMetal1 &&
          s.rect.width() > best) {
        best = s.rect.width();
        y = s.rect.center().y;
      }
    return y;
  };
  const double pitch = layout::TechRules{}.track_pitch();
  EXPECT_NEAR(std::fabs(trunk_y("vbc") - trunk_y("vbn")), pitch, 1e-9);

  ComparatorDft dft;
  dft.separated_bias_lines = true;
  const auto cell2 = build_comparator_layout(dft);
  auto trunk_y2 = [&](const std::string& net) {
    double best = -1, y = 0;
    for (const auto& s : cell2.shapes())
      if (s.net == net && s.layer == layout::Layer::kMetal1 &&
          s.rect.width() > best) {
        best = s.rect.width();
        y = s.rect.center().y;
      }
    return y;
  };
  EXPECT_GT(std::fabs(trunk_y2("vbc") - trunk_y2("vbn")), 1.5 * pitch);
}

TEST(Comparator, ResolvesPolarityAcrossGrid) {
  const auto macro_netlist = build_comparator_netlist();
  const auto runs =
      run_decision_grid(comparator_grid_bench(), macro_netlist, 0);
  EXPECT_EQ(runs[0].decision, -1);
  EXPECT_EQ(runs[1].decision, -1);
  EXPECT_EQ(runs[2].decision, 1);
  EXPECT_EQ(runs[3].decision, 1);
  for (const auto& run : runs) EXPECT_TRUE(run.converged);
}

TEST(Comparator, ClockLevelsReachRails) {
  const auto run = simulate_comparator(build_comparator_netlist(), 0.3);
  EXPECT_NEAR(run.clock_levels[0], kVddd, 0.1);  // clk1 hi
  EXPECT_NEAR(run.clock_levels[1], 0.0, 0.1);    // clk1 lo
  EXPECT_NEAR(run.clock_levels[2], kVddd, 0.1);  // clk2 hi
  EXPECT_NEAR(run.clock_levels[4], kVddd, 0.1);  // clk3 hi
}

TEST(Comparator, NominalFlipflopDrawsSamplingCurrent) {
  const auto nominal = simulate_comparator(build_comparator_netlist(), 0.3);
  ComparatorDft dft;
  dft.leakage_free_flipflop = true;
  const auto redesigned =
      simulate_comparator(build_comparator_netlist(dft), 0.3);
  // Paper: the flipflop draws a strongly process-dependent current in
  // the sampling phase; the DfT redesign eliminates it.
  EXPECT_GT(nominal.ivdd[0], 20.0 * redesigned.ivdd[0]);
  // Outside sampling both designs are quiet at similar levels.
  EXPECT_NEAR(nominal.ivdd[1], redesigned.ivdd[1], 20e-6);
}

TEST(Comparator, IddqNearZeroFaultFree) {
  const auto run = simulate_comparator(build_comparator_netlist(), 0.3);
  for (double i : run.iddq) EXPECT_LT(std::fabs(i), 1e-6);
}

TEST(Comparator, MeasurementLayoutMatchesVector) {
  const auto layout = comparator_measurement_layout();
  EXPECT_EQ(layout.size(), 24u);
  const auto lo = simulate_comparator(build_comparator_netlist(), -0.3);
  const auto hi = simulate_comparator(build_comparator_netlist(), 0.3);
  EXPECT_EQ(comparator_measurements(lo, hi).size(), layout.size());
}

// Classification unit tests with synthetic run records.
ComparatorRun synthetic_run(int decision) {
  ComparatorRun run;
  run.decision = decision;
  run.converged = true;
  run.clock_levels = {5, 0, 5, 0, 5, 0};
  return run;
}

std::array<ComparatorRun, 4> synthetic_grid(int d0, int d1, int d2, int d3) {
  return {synthetic_run(d0), synthetic_run(d1), synthetic_run(d2),
          synthetic_run(d3)};
}

TEST(Classify, NominalMatchesIsNoDeviation) {
  const auto nominal = synthetic_grid(-1, -1, 1, 1);
  EXPECT_EQ(classify_comparator(nominal, nominal),
            VoltageSignature::kNoDeviation);
}

TEST(Classify, AllSameIsStuck) {
  const auto nominal = synthetic_grid(-1, -1, 1, 1);
  EXPECT_EQ(classify_comparator(synthetic_grid(1, 1, 1, 1), nominal),
            VoltageSignature::kOutputStuckAt);
  EXPECT_EQ(classify_comparator(synthetic_grid(-1, -1, -1, -1), nominal),
            VoltageSignature::kOutputStuckAt);
}

TEST(Classify, ShiftedThresholdIsOffset) {
  const auto nominal = synthetic_grid(-1, -1, 1, 1);
  // Wrong at +9 mV but right at +300 mV: threshold shifted past 8 mV.
  EXPECT_EQ(classify_comparator(synthetic_grid(-1, -1, -1, 1), nominal),
            VoltageSignature::kOffset);
  EXPECT_EQ(classify_comparator(synthetic_grid(-1, 1, 1, 1), nominal),
            VoltageSignature::kOffset);
}

TEST(Classify, NonMonotonicIsMixed) {
  const auto nominal = synthetic_grid(-1, -1, 1, 1);
  EXPECT_EQ(classify_comparator(synthetic_grid(1, -1, 1, 1), nominal),
            VoltageSignature::kMixed);
}

TEST(Classify, InvalidFlipflopLevels) {
  const auto nominal = synthetic_grid(-1, -1, 1, 1);
  EXPECT_EQ(classify_comparator(synthetic_grid(0, 0, 0, 0), nominal),
            VoltageSignature::kOutputStuckAt);
  EXPECT_EQ(classify_comparator(synthetic_grid(-1, 0, 1, 1), nominal),
            VoltageSignature::kMixed);
}

TEST(Classify, ClockLevelDeviation) {
  const auto nominal = synthetic_grid(-1, -1, 1, 1);
  auto faulty = nominal;
  for (auto& run : faulty) run.clock_levels[2] = 4.7;  // clk2 hi sagged
  EXPECT_EQ(classify_comparator(faulty, nominal),
            VoltageSignature::kClockValue);
}

TEST(Classify, NonConvergenceIsStuck) {
  const auto nominal = synthetic_grid(-1, -1, 1, 1);
  auto faulty = nominal;
  faulty[2].converged = false;
  EXPECT_EQ(classify_comparator(faulty, nominal),
            VoltageSignature::kOutputStuckAt);
}

// Fault-injection integration: a hard short across the comparator
// outputs must not look fault-free.
TEST(Comparator, OutputShortIsDetectedAsBrokenFlipflop) {
  const auto good = build_comparator_netlist();
  fault::CircuitFault f;
  f.kind = fault::FaultKind::kShort;
  f.nets = {"outn", "outp"};
  f.material = fault::BridgeMaterial::kMetal;
  const auto bad = fault::apply_fault(good, f, fault::FaultModelOptions{});
  const auto nominal = run_decision_grid(comparator_grid_bench(), good, 0);
  const auto faulty = run_decision_grid(comparator_grid_bench(), bad, 0);
  EXPECT_NE(classify_comparator(faulty, nominal),
            VoltageSignature::kNoDeviation);
}

TEST(Comparator, ClockLineNearMissShortsYieldClockValueSignature) {
  // High-ohmic (non-catastrophic) faults on the clock distribution lines
  // shift the clock levels without necessarily breaking the function:
  // the paper's "Clock value" signature. At least one of the plausible
  // clock-line near-miss shorts must classify that way.
  const auto good = build_comparator_netlist();
  const auto nominal = run_decision_grid(comparator_grid_bench(), good, 0);
  const std::vector<std::pair<std::string, std::string>> candidates = {
      {"clk2", "tail3"}, {"clk3", "lat"}, {"clk1", "q"}, {"clk3", "outn"},
      {"clk1", "vin"}};
  bool found_clock_value = false;
  for (const auto& [a, b] : candidates) {
    fault::CircuitFault f;
    f.kind = fault::FaultKind::kShort;
    f.nets = {std::min(a, b), std::max(a, b)};
    f.material = fault::BridgeMaterial::kMetal;
    const auto bad = fault::apply_fault(good, f, fault::FaultModelOptions{},
                                        0, /*non_catastrophic=*/true);
    const auto faulty = run_decision_grid(comparator_grid_bench(), bad, 0);
    found_clock_value =
        found_clock_value || classify_comparator(faulty, nominal) ==
                                 VoltageSignature::kClockValue;
  }
  EXPECT_TRUE(found_clock_value);
}

// --------------------------------------------------------------- ladder

TEST(Ladder, NominalTapsAreUniform) {
  const auto sol = solve_ladder(build_ladder_netlist());
  ASSERT_TRUE(sol.converged);
  ASSERT_EQ(sol.taps.size(), 256u);
  for (int i = 0; i < 256; ++i) {
    const double expected = kVrefLo + (i + 1) * lsb();
    EXPECT_NEAR(sol.taps[static_cast<std::size_t>(i)], expected, 1e-6)
        << "tap " << i;
  }
}

TEST(Ladder, ReferenceCurrentMatchesResistance) {
  const auto sol = solve_ladder(build_ladder_netlist());
  // Coarse 16 * 12 Ohm in parallel with fine 16 * (16*60) per segment.
  const double seg = 1.0 / (1.0 / kCoarseOhms +
                            1.0 / (kFinePerSegment * kFineOhms));
  const double expected = (kVrefHi - kVrefLo) / (kCoarseSegments * seg);
  EXPECT_NEAR(sol.iref_p, expected, 1e-3);
  EXPECT_NEAR(sol.iref_m, -expected, 1e-3);
}

TEST(Ladder, ShortAcrossSegmentShiftsTapsAndCurrent) {
  const auto good = build_ladder_netlist();
  fault::CircuitFault f;
  f.kind = fault::FaultKind::kShort;
  f.nets = {"c4", "c8"};
  f.material = fault::BridgeMaterial::kMetal;
  const auto bad = fault::apply_fault(good, f, fault::FaultModelOptions{});
  const auto nominal = solve_ladder(good);
  const auto faulty = solve_ladder(bad);
  ASSERT_TRUE(faulty.converged);
  // A quarter of the string is gone: current jumps, taps collapse.
  EXPECT_GT(faulty.iref_p, 1.2 * nominal.iref_p);
  EXPECT_NEAR(faulty.taps[80], faulty.taps[100], 0.05);
}

TEST(Ladder, TapVectorPropagatesToMissingCode) {
  const auto good = build_ladder_netlist();
  fault::CircuitFault f;
  f.kind = fault::FaultKind::kShort;
  f.nets = {ladder_tap_net(40), ladder_tap_net(42)};
  f.material = fault::BridgeMaterial::kPoly;
  const auto bad = fault::apply_fault(good, f, fault::FaultModelOptions{});
  const auto sol = solve_ladder(bad);
  ASSERT_TRUE(sol.converged);
  const FlashAdcModel adc(sol.taps);
  EXPECT_TRUE(has_missing_code(adc));
  // The fault-free ladder shows no missing code.
  EXPECT_FALSE(has_missing_code(FlashAdcModel(solve_ladder(good).taps)));
}

// -------------------------------------------------------------- biasgen

TEST(Biasgen, ProducesCloseBiasLevels) {
  const auto sol = solve_biasgen(build_biasgen_netlist());
  ASSERT_TRUE(sol.converged);
  // Two bias voltages around a volt, deliberately close together.
  EXPECT_GT(sol.vbn, 0.7);
  EXPECT_LT(sol.vbn, 1.4);
  EXPECT_GT(sol.vbc, 0.7);
  EXPECT_LT(sol.vbc, 1.4);
  EXPECT_LT(std::fabs(sol.vbc - sol.vbn), 0.3);
  EXPECT_GT(sol.ivdd, 1e-6);
}

TEST(Biasgen, SupplyShortChangesCurrentMassively) {
  const auto good = build_biasgen_netlist();
  fault::CircuitFault f;
  f.kind = fault::FaultKind::kShort;
  f.nets = {"vbn", "vdda"};
  f.material = fault::BridgeMaterial::kMetal;
  const auto bad = fault::apply_fault(good, f, fault::FaultModelOptions{});
  const auto nominal = solve_biasgen(good);
  const auto faulty = solve_biasgen(bad);
  ASSERT_TRUE(faulty.converged);
  EXPECT_GT(faulty.ivdd, 5.0 * nominal.ivdd);
  EXPECT_GT(faulty.vbn, 4.0);  // bias line pulled to the supply
}

// ------------------------------------------------------------- clockgen

TEST(Clockgen, PhasesAtLogicLevels) {
  const auto sol = solve_clockgen(build_clockgen_netlist());
  ASSERT_TRUE(sol.converged);
  for (int i = 0; i < 3; ++i) {
    const bool low_ok = sol.out_low[i] < 0.5 || sol.out_low[i] > kVddd - 0.5;
    const bool high_ok =
        sol.out_high[i] < 0.5 || sol.out_high[i] > kVddd - 0.5;
    EXPECT_TRUE(low_ok) << "phase " << i;
    EXPECT_TRUE(high_ok) << "phase " << i;
  }
  // clk1 follows the clock input (buffered): differs between states.
  EXPECT_NE(sol.out_low[0] > 2.5, sol.out_high[0] > 2.5);
}

TEST(Clockgen, QuiescentIddqIsTiny) {
  const auto sol = solve_clockgen(build_clockgen_netlist());
  EXPECT_LT(sol.iddq_low, 1e-6);
  EXPECT_LT(sol.iddq_high, 1e-6);
}

TEST(Clockgen, InternalShortRaisesIddq) {
  const auto good = build_clockgen_netlist();
  fault::CircuitFault f;
  f.kind = fault::FaultKind::kShort;
  f.nets = {"p1", "p1b"};  // consecutive buffer stages fight
  f.material = fault::BridgeMaterial::kMetal;
  const auto bad = fault::apply_fault(good, f, fault::FaultModelOptions{
                                                   .vdd_net = "vddd"});
  const auto faulty = solve_clockgen(bad);
  ASSERT_TRUE(faulty.converged);
  EXPECT_GT(std::max(faulty.iddq_low, faulty.iddq_high), 1e-4);
}

// -------------------------------------------------------------- decoder

TEST(Decoder, RowsFollowThermometerTruthTable) {
  const auto sol = solve_decoder(build_decoder_netlist());
  ASSERT_TRUE(sol.converged);
  for (int v = 0; v <= 4; ++v)
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(sol.rows[static_cast<std::size_t>(v)]
                        [static_cast<std::size_t>(r)] > kVddd / 2,
                decoder_row_expected(v, r))
          << "vector " << v << " row " << r;
}

TEST(Decoder, QuiescentIddqTinyAcrossVectors) {
  const auto sol = solve_decoder(build_decoder_netlist());
  for (double i : sol.iddq) EXPECT_LT(i, 1e-6);
}

TEST(Decoder, StuckRowDetectedFunctionally) {
  const auto good = build_decoder_netlist();
  fault::CircuitFault f;
  f.kind = fault::FaultKind::kShort;
  f.nets = {"0", "r1"};
  f.material = fault::BridgeMaterial::kMetal;
  const auto bad = fault::apply_fault(good, f, fault::FaultModelOptions{
                                                   .vdd_net = "vddd"});
  const auto sol = solve_decoder(bad);
  ASSERT_TRUE(sol.converged);
  // Row r1 can no longer go high for vector 2.
  EXPECT_LT(sol.rows[2][1], kVddd / 2);
}

// ------------------------------------------------------------- DC bench

/// Every node voltage and voltage-source current of each converged drive
/// state, by name, and whether any state ran on the context's map.
struct DcObservation {
  bool converged = false;
  bool golden_map = false;
  std::vector<std::map<std::string, double>> volts;
  std::vector<std::map<std::string, double>> amps;
};

DcObservation observe_dc(const DcBench& bench, const spice::Netlist& macro,
                         const DcContext* context) {
  DcObservation obs;
  obs.converged = solve_dc(
      bench, macro, context,
      [&](int, const spice::Netlist& n, const spice::MnaMap& map,
          const std::vector<double>& x) {
        obs.golden_map = obs.golden_map || (context && &map == &context->map);
        auto& volts = obs.volts.emplace_back();
        for (spice::NodeId id = 1;
             id < static_cast<spice::NodeId>(n.node_count()); ++id)
          volts[n.node_name(id)] = map.voltage(x, id);
        auto& amps = obs.amps.emplace_back();
        for (const auto& device : n.devices())
          if (const auto* s = std::get_if<spice::VoltageSource>(&device))
            amps[s->name] = map.branch_current(x, s->name);
      });
  return obs;
}

/// The context path (golden map and warm start when the node count
/// matches) and a cold solve agree within 2·loose_vtol: node voltages
/// in volts, source currents relative to the state's largest one.
void expect_context_matches_cold(const DcBench& bench,
                                 const spice::Netlist& macro,
                                 const DcContext& context,
                                 bool expect_golden_map) {
  const double tol = 2.0 * spice::DcOptions{}.loose_vtol;
  const DcObservation warm = observe_dc(bench, macro, &context);
  const DcObservation cold = observe_dc(bench, macro, nullptr);
  ASSERT_TRUE(warm.converged);
  ASSERT_TRUE(cold.converged);
  EXPECT_EQ(warm.golden_map, expect_golden_map);
  ASSERT_EQ(warm.volts.size(), static_cast<std::size_t>(bench.states));
  for (std::size_t s = 0; s < warm.volts.size(); ++s) {
    ASSERT_EQ(warm.volts[s].size(), cold.volts[s].size());
    for (const auto& [node, v] : cold.volts[s])
      EXPECT_NEAR(warm.volts[s].at(node), v, tol)
          << "state " << s << " node " << node;
    double scale = 0.0;
    for (const auto& [source, i] : cold.amps[s])
      scale = std::max(scale, std::fabs(i));
    for (const auto& [source, i] : cold.amps[s])
      EXPECT_NEAR(warm.amps[s].at(source), i, tol * scale)
          << "state " << s << " source " << source;
  }
}

/// Gate-to-channel pinhole (variant 2) on `device`: adds node gos_ch.
spice::Netlist with_channel_pinhole(const spice::Netlist& good,
                                    const std::string& device) {
  fault::CircuitFault f;
  f.kind = fault::FaultKind::kGateOxidePinhole;
  f.device = device;
  return fault::apply_fault(good, f, fault::FaultModelOptions{}, 2);
}

TEST(DcBench, ContextSolveMatchesColdSolve) {
  // An open at coarse node c4 strands RC4's lower end on a new node.
  fault::CircuitFault open;
  open.kind = fault::FaultKind::kOpen;
  open.nets = {"c4"};
  open.isolated_taps = {{"RC4", 0}};
  const struct {
    const char* name;
    DcBench bench;
    spice::Netlist good;
    spice::Netlist node_adding;
  } cases[] = {
      {"ladder", ladder_dc_bench(), build_ladder_netlist(),
       fault::apply_fault(build_ladder_netlist(), open,
                          fault::FaultModelOptions{})},
      {"biasgen", biasgen_dc_bench(), build_biasgen_netlist(),
       with_channel_pinhole(build_biasgen_netlist(), "MD1")},
      {"clockgen", clockgen_dc_bench(), build_clockgen_netlist(),
       with_channel_pinhole(build_clockgen_netlist(), "MN_i1")},
      {"decoder", decoder_dc_bench(), build_decoder_netlist(),
       with_channel_pinhole(build_decoder_netlist(), "MN_inv_t1")},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const DcContext context = make_dc_context(c.bench, c.good);
    ASSERT_EQ(context.golden.size(), static_cast<std::size_t>(c.bench.states));
    ASSERT_GT(c.node_adding.node_count(), c.good.node_count());
    {
      SCOPED_TRACE("fault-free");
      expect_context_matches_cold(c.bench, c.good, context, true);
    }
    {
      SCOPED_TRACE("node-adding fault");
      expect_context_matches_cold(c.bench, c.node_adding, context, false);
    }
  }
}

// ----------------------------------------------------------- behavioral

TEST(Behavioral, IdealConverterStaircase) {
  const FlashAdcModel adc;
  EXPECT_EQ(adc.convert(kVrefLo - 0.01), 0);
  EXPECT_EQ(adc.convert(kVrefHi + 0.01), 255);
  EXPECT_EQ(adc.convert(kVrefLo + 100.5 * lsb()), 100);
}

TEST(Behavioral, FaultFreeSeesAllCodes) {
  const FlashAdcModel adc;
  const auto seen = codes_seen(adc);
  for (int code = 0; code < 256; ++code)
    EXPECT_TRUE(seen[static_cast<std::size_t>(code)]) << "code " << code;
}

TEST(Behavioral, StuckComparatorCausesMissingCode) {
  FlashAdcModel adc;
  adc.set_comparator(100, {ComparatorMode::kStuckLow, 0.0});
  EXPECT_TRUE(has_missing_code(adc));
  FlashAdcModel adc2;
  adc2.set_comparator(100, {ComparatorMode::kStuckHigh, 0.0});
  EXPECT_TRUE(has_missing_code(adc2));
}

TEST(Behavioral, OffsetBeyondOneLsbCausesMissingCode) {
  FlashAdcModel adc;
  adc.set_comparator(100, {ComparatorMode::kOffset, 2.5 * lsb()});
  EXPECT_TRUE(has_missing_code(adc));
}

TEST(Behavioral, SmallOffsetHarmless) {
  FlashAdcModel adc;
  adc.set_comparator(100, {ComparatorMode::kOffset, 0.3 * lsb()});
  EXPECT_FALSE(has_missing_code(adc));
}

TEST(Behavioral, StuckDecoderRowCausesMissingCode) {
  FlashAdcModel adc;
  adc.set_row_stuck(100, false);
  EXPECT_TRUE(has_missing_code(adc));
}

TEST(Behavioral, TestTimeMatchesSampleCount) {
  EXPECT_NEAR(missing_code_test_time(), 1000 * kCyclePeriod, 1e-12);
}

// ------------------------------------------------- measurement horizon

// Transients stop one step past kMeasEnd, the last instant any extractor
// reads; the records must equal those of a full two-cycle run bit for
// bit.
void expect_same_run(const ComparatorRun& a, const ComparatorRun& b,
                     double dv) {
  EXPECT_EQ(a.decision, b.decision) << "dv " << dv;
  EXPECT_EQ(a.ivdd, b.ivdd) << "dv " << dv;
  EXPECT_EQ(a.iddq, b.iddq) << "dv " << dv;
  EXPECT_EQ(a.iin, b.iin) << "dv " << dv;
  EXPECT_EQ(a.iref, b.iref) << "dv " << dv;
  EXPECT_EQ(a.clock_levels, b.clock_levels) << "dv " << dv;
  EXPECT_EQ(a.converged, b.converged) << "dv " << dv;
}

TEST(MeasurementHorizon, ComparatorRunsMatchTwoCycleRun) {
  const auto macro = build_comparator_netlist();
  const auto horizon = comparator_tran_options();
  auto two_cycles = horizon;
  two_cycles.t_stop = 2.0 * kCyclePeriod;
  ASSERT_LT(horizon.t_stop, two_cycles.t_stop);
  for (const double dv : kDecisionGrid) {
    const auto bench = instantiate_comparator_bench(macro, dv);
    const auto run = spice::transient(bench, horizon);
    EXPECT_GE(run.times().back(), kMeasEnd);
    expect_same_run(extract_comparator_run(run),
                    extract_comparator_run(spice::transient(bench, two_cycles)),
                    dv);
  }
}

TEST(MeasurementHorizon, Bank8RunsMatchTwoCycleRun) {
  BankOptions bank;
  bank.size = 8;
  const auto macro = build_bank_netlist(bank);
  const auto horizon = bank_tran_options();
  auto two_cycles = horizon;
  two_cycles.t_stop = 2.0 * kCyclePeriod;
  for (const double dv : kDecisionGrid) {
    const auto bench = instantiate_bank_bench(macro, bank, 5, dv);
    expect_same_run(
        extract_bank_run(spice::transient(bench, horizon), bank, 5),
        extract_bank_run(spice::transient(bench, two_cycles), bank, 5), dv);
  }
}

// A waveform that ends before kMeasEnd is an error, not a silent hold
// of its last sample.
TEST(MeasurementHorizon, ExtractorsRejectShortWaveforms) {
  const auto macro = build_comparator_netlist();
  auto tran = comparator_tran_options();
  tran.t_stop = kMeasEnd - 5e-9;
  const auto short_run =
      spice::transient(instantiate_comparator_bench(macro, 0.3), tran);
  EXPECT_THROW(extract_comparator_run(short_run), util::InvalidInputError);
  const spice::TranResult empty(spice::MnaMap(), {});
  EXPECT_THROW(extract_comparator_run(empty), util::InvalidInputError);
  BankOptions bank;
  bank.size = 8;
  EXPECT_THROW(extract_bank_run(short_run, bank, 0), util::InvalidInputError);
  ChipOptions chip;
  chip.slices = 8;
  EXPECT_THROW(extract_chip_run(short_run, chip, 0), util::InvalidInputError);
}

// ------------------------------------------------------------ envelope

/// Checks that every fault-free sample lies inside the envelope built
/// from those same samples, and that each band is the 3-sigma band (or
/// a floor) of an independent two-pass mean and sample deviation. With
/// n <= 10 samples this must hold: by Samuelson's inequality no sample
/// lies more than (n - 1) / sqrt(n) <= 2.85 sample sigma from the mean,
/// and the floors and the dilution only widen a 3-sigma band.
void expect_samples_inside(const macro::MeasurementLayout& layout,
                           const std::vector<std::vector<double>>& samples,
                           const macro::BandPolicy& policy) {
  ASSERT_GE(samples.size(), 2u);
  ASSERT_LE(samples.size(), 10u);
  const auto envelope = macro::build_envelope(layout, samples, policy);
  for (const auto& sample : samples) EXPECT_TRUE(envelope.inside(sample));
  const double n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < layout.size(); ++i) {
    double mean = 0.0;
    for (const auto& sample : samples) mean += sample[i] / n;
    double ss = 0.0;
    for (const auto& sample : samples)
      ss += (sample[i] - mean) * (sample[i] - mean);
    const double sigma = std::sqrt(ss / (n - 1.0));
    double dilution = 1.0;
    if (layout.kinds[i] == macro::MeasurementKind::kIVdd)
      dilution = policy.ivdd_dilution;
    else if (layout.kinds[i] == macro::MeasurementKind::kIinput)
      dilution = policy.iinput_dilution;
    const double half = std::max(
        {policy.k_sigma * sigma * dilution, policy.abs_floor,
         policy.rel_floor * std::fabs(mean) * dilution});
    const util::Band& band = envelope.space().band(i);
    EXPECT_NEAR((band.lo + band.hi) / 2.0, mean, 1e-9 * half)
        << layout.names[i];
    EXPECT_NEAR(band.width() / 2.0, half, 1e-9 * half) << layout.names[i];
  }
}

// The comparator's and the ladder's envelopes as the campaign draws them
// at --envelope=10: the campaign's seed and salts, spreads, perturbed
// supplies and band policy (comparator currents diluted by its
// instance count).
TEST(Envelope, FaultFreeSamplesLieInsideTheirEnvelope) {
  const CampaignConfig config;
  constexpr int kSamples = 10;

  const macro::MacroCell comparator = build_comparator_macro();
  const std::vector<spice::Netlist> benches = {
      instantiate_comparator_bench(comparator.netlist,
                                   kDecisionGrid.front()),
      instantiate_comparator_bench(comparator.netlist, kDecisionGrid.back())};
  const spice::ProcessSpread spread;
  const auto comparator_samples = macro::monte_carlo_samples(
      kSamples, util::Rng(config.seed ^ 0xc0ffee),
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(spread, rng);
        std::vector<spice::Netlist> perturbed;
        for (const spice::Netlist& bench : benches)
          perturbed.push_back(spice::perturb(
              bench, spread, env, {"VDDA", "VDDD", "VBN_SRC", "VBC_SRC"},
              rng));
        auto run = [](const spice::Netlist& bench) {
          return extract_comparator_run(
              spice::transient(bench, comparator_tran_options()));
        };
        try {
          return comparator_measurements(run(perturbed[0]),
                                         run(perturbed[1]));
        } catch (const util::ConvergenceError&) {
          return std::nullopt;
        }
      });
  macro::BandPolicy diluted = config.band_policy;
  diluted.ivdd_dilution *= static_cast<double>(comparator.instance_count);
  diluted.iinput_dilution *= static_cast<double>(comparator.instance_count);
  expect_samples_inside(comparator_measurement_layout(), comparator_samples,
                        diluted);

  const macro::MacroCell ladder = build_ladder_macro();
  const DcContext context = make_dc_context(ladder_dc_bench(), ladder.netlist,
                                            config.solver);
  const spice::ProcessSpread tight_poly{.res_sigma_rel_global = 0.015,
                                        .res_tc = 1e-4};
  const auto ladder_samples = macro::monte_carlo_samples(
      kSamples, util::Rng(config.seed ^ 0x1adde4),
      [&](int, util::Rng& rng) -> std::optional<std::vector<double>> {
        const auto env = spice::sample_environment(tight_poly, rng);
        const LadderSolution sol = solve_ladder(
            spice::perturb(ladder.netlist, tight_poly, env, {}, rng),
            &context);
        if (!sol.converged) return std::nullopt;
        return ladder_measurements(sol);
      });
  expect_samples_inside(ladder_measurement_layout(), ladder_samples,
                        config.band_policy);
}

}  // namespace
}  // namespace dot::flashadc

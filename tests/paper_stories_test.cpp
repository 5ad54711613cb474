// The paper's specific fault stories, each pinned as a regression test:
//  - shorts between the two (nearly equal) bias lines are essentially
//    undetectable in the nominal design (section 3.4's second DfT);
//  - faults on the clock distribution lines raise the clock generator's
//    quiescent current (the 'IDDQ is striking' observation);
//  - the flipflop's sampling-phase contention is process-dependent and
//    disappears in the DfT redesign (section 3.4's first DfT).
#include <gtest/gtest.h>

#include "defect/analyze.hpp"
#include "fault/model.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/tech.hpp"
#include "spice/montecarlo.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dot::flashadc {
namespace {

using macro::VoltageSignature;

fault::CircuitFault short_fault(const std::string& a, const std::string& b) {
  fault::CircuitFault f;
  f.kind = fault::FaultKind::kShort;
  f.nets = {std::min(a, b), std::max(a, b)};
  f.material = fault::BridgeMaterial::kMetal;
  return f;
}

TEST(PaperStories, BiasLineShortIsFunctionallyInvisible) {
  // vbn and vbc "carry signals that are only marginally different"; a
  // hard short between them leaves the comparator decisions intact.
  const auto good = build_comparator_netlist();
  const auto bad = fault::apply_fault(good, short_fault("vbc", "vbn"),
                                      fault::FaultModelOptions{});
  const auto nominal = run_decision_grid(comparator_grid_bench(), good, 0);
  const auto faulty = run_decision_grid(comparator_grid_bench(), bad, 0);
  EXPECT_EQ(classify_comparator(faulty, nominal),
            VoltageSignature::kNoDeviation);
  // And the analog supply current barely moves (sub-3% of nominal).
  for (int p = 0; p < 3; ++p) {
    const auto pu = static_cast<std::size_t>(p);
    EXPECT_NEAR(faulty[3].ivdd[pu], nominal[3].ivdd[pu],
                0.03 * std::abs(nominal[3].ivdd[pu]) + 30e-6)
        << "phase " << p;
  }
}

TEST(PaperStories, ClockLineShortRaisesClockGeneratorIddq) {
  // A comparator-internal fault touching a clock distribution line makes
  // the clock generator's (digital) quiescent supply current explode --
  // the boundary-disturbing mechanism of the paper's section 4.
  const auto good = build_comparator_netlist();
  const auto nominal = simulate_comparator(good, 0.3);
  const auto bad = fault::apply_fault(good, short_fault("clk1", "clk2"),
                                      fault::FaultModelOptions{});
  const auto faulty = simulate_comparator(bad, 0.3);
  ASSERT_TRUE(faulty.converged);
  double worst_nominal = 0.0, worst_faulty = 0.0;
  for (int p = 0; p < 3; ++p) {
    const auto pu = static_cast<std::size_t>(p);
    worst_nominal = std::max(worst_nominal, std::abs(nominal.iddq[pu]));
    worst_faulty = std::max(worst_faulty, std::abs(faulty.iddq[pu]));
  }
  EXPECT_LT(worst_nominal, 1e-6);   // fault-free digital part: quiet
  EXPECT_GT(worst_faulty, 1e-3);    // buffers fight through the short
}

TEST(PaperStories, SamplingContentionIsProcessDependent) {
  // The nominal flipflop's sampling-phase current must vary strongly
  // across process samples (this spread is what masks IVdd signatures);
  // the DfT flipflop's must not.
  spice::ProcessSpread spread;
  util::Rng rng(99);
  auto spread_of = [&](const ComparatorDft& dft) {
    const auto macro_netlist = build_comparator_netlist(dft);
    double lo = 1e9, hi = -1e9;
    int good_samples = 0;
    for (int s = 0; s < 8 && good_samples < 6; ++s) {
      const auto env = spice::sample_environment(spread, rng);
      const auto bench = spice::perturb(
          instantiate_comparator_bench(macro_netlist, 0.3), spread, env,
          {"VDDA", "VDDD"}, rng);
      try {
        const auto run = extract_comparator_run(
            spice::transient(bench, comparator_tran_options()));
        lo = std::min(lo, run.ivdd[0]);
        hi = std::max(hi, run.ivdd[0]);
        ++good_samples;
      } catch (const util::ConvergenceError&) {
        // Extreme process corners can fail to bias; campaigns drop such
        // Monte-Carlo samples, and so does this test.
      }
    }
    EXPECT_GE(good_samples, 4);
    return hi - lo;
  };
  const double nominal_spread = spread_of(ComparatorDft{});
  ComparatorDft dft;
  dft.leakage_free_flipflop = true;
  const double dft_spread = spread_of(dft);
  EXPECT_GT(nominal_spread, 10.0 * dft_spread);
  EXPECT_GT(nominal_spread, 100e-6);  // hundreds of uA per cell
  EXPECT_LT(dft_spread, 50e-6);
}

TEST(PaperStories, SeparatedBiasLinesReduceAdjacentShortExposure) {
  // The DfT routing moves vbn and vbc apart; the likelihood of a short
  // between them (estimated by critical-area-style sampling) drops.
  const auto count_bias_shorts = [](const ComparatorDft& dft) {
    const auto cell = build_comparator_layout(dft);
    const defect::DefectAnalyzer analyzer(cell, {.vdd_net = "vdda"});
    defect::DefectStatistics stats;
    util::Rng rng(5);
    std::size_t hits = 0;
    for (int i = 0; i < 150000; ++i) {
      const auto d =
          defect::sample_defect(stats, cell.bounding_box(), rng);
      const auto f = analyzer.analyze(d);
      if (f && f->kind == fault::FaultKind::kShort && f->nets.size() == 2 &&
          f->nets[0] == "vbc" && f->nets[1] == "vbn")
        ++hits;
    }
    return hits;
  };
  const std::size_t nominal_hits = count_bias_shorts(ComparatorDft{});
  ComparatorDft dft;
  dft.separated_bias_lines = true;
  const std::size_t dft_hits = count_bias_shorts(dft);
  EXPECT_GT(nominal_hits, 20u);
  EXPECT_LT(dft_hits, nominal_hits / 4);
}

}  // namespace
}  // namespace dot::flashadc

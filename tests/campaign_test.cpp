// End-to-end tests of the defect-oriented test path: defect sprinkling
// through fault simulation to detection outcomes, per macro and global.
// Small defect counts and truncated class lists keep these fast; the
// full-scale runs live in bench/.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "flashadc/campaign.hpp"
#include "flashadc/report.hpp"
#include "testgen/testset.hpp"

namespace dot::flashadc {
namespace {

CampaignConfig small_config() {
  CampaignConfig config;
  config.defect_count = 40000;
  config.seed = 7;
  config.envelope_samples = 10;
  config.max_classes = 25;
  return config;
}

TEST(Campaign, ComparatorProducesOutcomes) {
  const auto r = run_macro_campaign(small_config(), "comparator");
  EXPECT_EQ(r.macro_name, "comparator");
  EXPECT_EQ(r.instance_count, 256u);
  EXPECT_GT(r.cell_area, 0.0);
  EXPECT_GT(r.defects.faults_extracted, 0u);
  ASSERT_FALSE(r.catastrophic.empty());
  ASSERT_FALSE(r.noncatastrophic.empty());
  // Non-catastrophic variants exist only for shorts / extra contacts.
  EXPECT_LE(r.noncatastrophic.size(), r.catastrophic.size());
  // Signature fractions are distributions.
  double sum = 0.0;
  for (double f : r.voltage_signature_fractions(false)) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Coverage is a sane fraction and current tests carry real weight.
  EXPECT_GT(r.coverage(false), 0.4);
  EXPECT_LE(r.coverage(false), 1.0);
  EXPECT_GT(r.current_coverage(false), 0.3);
}

TEST(Campaign, ComparatorDeterministicForSeed) {
  const auto a = run_macro_campaign(small_config(), "comparator");
  const auto b = run_macro_campaign(small_config(), "comparator");
  ASSERT_EQ(a.catastrophic.size(), b.catastrophic.size());
  for (std::size_t i = 0; i < a.catastrophic.size(); ++i) {
    EXPECT_EQ(a.catastrophic[i].voltage, b.catastrophic[i].voltage);
    EXPECT_EQ(a.catastrophic[i].detection.detected(),
              b.catastrophic[i].detection.detected());
  }
}

TEST(Campaign, LadderMostlyCurrentDetectable) {
  auto config = small_config();
  config.max_classes = 40;
  const auto r = run_macro_campaign(config, "ladder");
  ASSERT_FALSE(r.catastrophic.empty());
  // Paper: 99.8% of reference-ladder faults are current detectable.
  EXPECT_GT(r.current_coverage(false), 0.9);
}

TEST(Campaign, BiasgenEvaluates) {
  const auto r = run_macro_campaign(small_config(), "biasgen");
  ASSERT_FALSE(r.catastrophic.empty());
  EXPECT_GT(r.coverage(false), 0.3);
}

TEST(Campaign, ClockgenIddqDominates) {
  auto config = small_config();
  config.max_classes = 40;
  const auto r = run_macro_campaign(config, "clockgen");
  ASSERT_FALSE(r.catastrophic.empty());
  // Paper: 93.8% of clock-generator faults are current detectable, and
  // the mechanism is the digital quiescent current.
  EXPECT_GT(r.current_coverage(false), 0.7);
  double iddq_weight = 0.0, total = 0.0;
  for (const auto& o : r.catastrophic) {
    if (o.current.iddq) iddq_weight += static_cast<double>(o.cls.count);
    total += static_cast<double>(o.cls.count);
  }
  EXPECT_GT(iddq_weight / total, 0.5);
}

TEST(Campaign, DecoderEvaluates) {
  const auto r = run_macro_campaign(small_config(), "decoder");
  ASSERT_FALSE(r.catastrophic.empty());
  EXPECT_EQ(r.instance_count, 64u);
  EXPECT_GT(r.coverage(false), 0.5);
}

TEST(Campaign, GlobalCompilationAreaWeighted) {
  auto config = small_config();
  config.max_classes = 15;
  auto comparator = run_macro_campaign(config, "comparator");
  auto ladder = run_macro_campaign(config, "ladder");
  const auto global = compile_global({comparator, ladder});
  EXPECT_EQ(global.macros.size(), 2u);
  const auto& venn = global.venn_catastrophic;
  EXPECT_NEAR(venn.voltage_only + venn.both + venn.current_only +
                  venn.undetected,
              1.0, 1e-9);
  EXPECT_GT(venn.detected(), 0.5);
  // The 256 comparator instances dominate the area, so global coverage
  // sits close to the comparator's own coverage.
  EXPECT_GT(comparator.cell_area * 256, ladder.cell_area * 10);
}

TEST(Campaign, OutcomesFeedTestSetOptimizer) {
  const auto r = run_macro_campaign(small_config(), "comparator");
  const auto contribution = r.contribution(false);
  const auto set = testgen::optimize_test_set(contribution.outcomes);
  EXPECT_FALSE(set.mechanisms.empty());
  EXPECT_GT(set.coverage, 0.4);
  EXPECT_GT(set.time_seconds, 0.0);
  EXPECT_LT(set.time_seconds, 1.0);  // far below spec-test minutes
}

TEST(Campaign, DftImprovesComparatorCoverage) {
  auto config = small_config();
  config.max_classes = 30;
  const auto nominal = run_macro_campaign(config, "comparator");
  auto dft_config = config;
  dft_config.dft.leakage_free_flipflop = true;
  dft_config.dft.separated_bias_lines = true;
  const auto dft = run_macro_campaign(dft_config, "comparator");
  // Paper figure 5: the DfT measures raise coverage (93.3% -> 99.1%
  // globally). At this truncated scale we only require improvement.
  EXPECT_GE(dft.coverage(false) + 0.02, nominal.coverage(false));
}

/// FNV-1a over a byte string, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string flags(const macro::DetectionOutcome& d) {
  return std::string{d.missing_code ? '1' : '0', d.ivdd ? '1' : '0',
                     d.iddq ? '1' : '0', d.iinput ? '1' : '0'};
}

/// Digest of every outcome in order: class key and count, pass, voltage
/// signature, the four detection flags, status and attempts.
std::uint64_t verdict_digest(const MacroCampaignResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto* outcomes : {&r.catastrophic, &r.noncatastrophic})
    for (const FaultOutcome& o : *outcomes)
      h = fnv1a(h, o.cls.representative.key() + '\n' +
                       std::to_string(o.cls.count) + '\n' +
                       (o.non_catastrophic ? "noncat" : "cat") + '\n' +
                       std::to_string(static_cast<int>(o.voltage)) + '\n' +
                       flags(o.detection) + '\n' +
                       std::to_string(static_cast<int>(o.status)) + '\n' +
                       std::to_string(o.attempts) + '\n');
  return h;
}

/// Digest of a decomposition diff: every entry's projection and both
/// verdicts, in entry order.
std::uint64_t equivalence_digest(const macro::EquivalenceReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& e : report.entries)
    h = fnv1a(h, std::to_string(e.index) + '\n' +
                     std::to_string(static_cast<int>(e.locality)) + '\n' +
                     std::to_string(e.slice) + '\n' + e.composite_key +
                     '\n' + e.projected_key + '\n' +
                     std::to_string(static_cast<int>(e.projected_voltage)) +
                     '\n' + flags(e.composite_detection) +
                     flags(e.projected_detection) +
                     (e.composite_unresolved ? "u" : "r") +
                     (e.projected_unresolved ? "u" : "r") + '\n');
  return h;
}

/// The oracle's pinned campaign: the smoke defect and envelope budgets,
/// 8-slice bank and chip columns, `classes` classes per macro.
CampaignConfig pinned_config(std::size_t classes) {
  CampaignConfig config;
  config.defect_count = 8000;
  config.seed = 31;
  config.envelope_samples = 4;
  config.max_classes = classes;
  config.bank_size = 8;
  config.chip_slices = 8;
  return config;
}


struct PinnedVerdicts {
  const char* macro;
  std::size_t classes;
  std::uint64_t digest;
};

// Oracle for the whole class-evaluation layer (golden runs, envelope,
// fault injection, worst-variant reduction, classification): per-macro
// digests of every verdict, pinned from an independent earlier
// implementation. Returns the runs, one per entry.
std::vector<MacroCampaignResult> expect_pinned(
    const std::vector<PinnedVerdicts>& pinned) {
  std::vector<MacroCampaignResult> runs;
  for (const auto& p : pinned) {
    MacroCampaignResult run =
        run_macro_campaign(pinned_config(p.classes), p.macro);
    EXPECT_EQ(verdict_digest(run), p.digest) << p.macro;
    runs.push_back(std::move(run));
  }
  return runs;
}

TEST(Campaign, PinnedVerdictsDcMacros) {
  expect_pinned({{"ladder", 40, 0xe70c10a71e5180d1ull},
                 {"biasgen", 40, 0xcaa7142194d0da74ull},
                 {"clockgen", 40, 0x506b8b55399248c4ull},
                 {"decoder", 40, 0x109276d2fbb21637ull}});
}

TEST(Campaign, PinnedVerdictsComparator) {
  expect_pinned({{"comparator", 16, 0xc878eb4e1775a29eull}});
}

TEST(Campaign, PinnedVerdictsBank8) {
  const auto bank = expect_pinned({{"bank", 12, 0xc25d207b4b896e3aull}})[0];
  EXPECT_EQ(equivalence_digest(
                compare_decomposition(pinned_config(12), bank)),
            0x907c5ff42cff79b2ull);
}

TEST(Campaign, PinnedVerdictsChip8) {
  const auto chip = expect_pinned({{"chip", 8, 0x8e664297efa9165eull}})[0];
  EXPECT_EQ(equivalence_digest(
                compare_decomposition(pinned_config(8), chip)),
            0xd2c45a2a99eba53bull);
}

// --phase-times on the class loop: the comparator's
// transients report their phase split, and the report differs from an
// unclocked run only by that block.
TEST(Campaign, PhaseTimesOnTheScalarPath) {
  CampaignConfig config = pinned_config(8);
  const MacroCampaignResult plain = run_macro_campaign(config, "comparator");
  config.collect_phase_times = true;
  const MacroCampaignResult timed = run_macro_campaign(config, "comparator");
  EXPECT_EQ(plain.phase_times.total_seconds(), 0.0);
  EXPECT_GT(timed.phase_times.device_eval_seconds, 0.0);
  EXPECT_GT(timed.phase_times.factor_seconds, 0.0);
  EXPECT_EQ(timed.batch_evaluated, 0u);

  std::string json = to_json(timed);
  const std::size_t at = json.find(",\"phase_times\":{");
  ASSERT_NE(at, std::string::npos) << json;
  json.erase(at, json.find('}', at) + 1 - at);
  EXPECT_EQ(json, to_json(plain));
}

}  // namespace
}  // namespace dot::flashadc

#include <gtest/gtest.h>

#include "macro/detection.hpp"
#include "macro/envelope.hpp"
#include "macro/signature.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dot::macro {
namespace {

DetectionOutcome outcome(bool mc, bool ivdd, bool iddq, bool iinput) {
  DetectionOutcome o;
  o.missing_code = mc;
  o.ivdd = ivdd;
  o.iddq = iddq;
  o.iinput = iinput;
  return o;
}

TEST(Signature, Names) {
  EXPECT_EQ(voltage_signature_name(VoltageSignature::kOutputStuckAt),
            "Output Stuck At");
  EXPECT_EQ(voltage_signature_name(VoltageSignature::kNoDeviation),
            "No deviations");
}

TEST(DetectionOutcome, Predicates) {
  EXPECT_TRUE(outcome(true, false, false, false).voltage_detected());
  EXPECT_FALSE(outcome(true, false, false, false).current_detected());
  EXPECT_TRUE(outcome(false, false, true, false).current_detected());
  EXPECT_FALSE(outcome(false, false, false, false).detected());
}

TEST(Venn, PartitionsWeights) {
  std::vector<WeightedOutcome> outcomes = {
      {outcome(true, false, false, false), 2.0},   // voltage only
      {outcome(true, true, false, false), 3.0},    // both
      {outcome(false, false, true, false), 4.0},   // current only
      {outcome(false, false, false, false), 1.0},  // undetected
  };
  const VennResult venn = compile_venn(outcomes);
  EXPECT_NEAR(venn.voltage_only, 0.2, 1e-12);
  EXPECT_NEAR(venn.both, 0.3, 1e-12);
  EXPECT_NEAR(venn.current_only, 0.4, 1e-12);
  EXPECT_NEAR(venn.undetected, 0.1, 1e-12);
  EXPECT_NEAR(venn.detected(), 0.9, 1e-12);
  EXPECT_NEAR(venn.voltage_total(), 0.5, 1e-12);
  EXPECT_NEAR(venn.current_total(), 0.7, 1e-12);
}

TEST(Venn, EmptyOutcomesSafe) {
  const VennResult venn = compile_venn({});
  EXPECT_DOUBLE_EQ(venn.detected(), 0.0);
}

TEST(Matrix, SubsetFractions) {
  std::vector<WeightedOutcome> outcomes = {
      {outcome(true, false, false, false), 1.0},
      {outcome(true, true, false, false), 1.0},
      {outcome(false, false, true, true), 1.0},
      {outcome(false, false, false, false), 1.0},
  };
  const MechanismMatrix m = compile_matrix(outcomes);
  EXPECT_NEAR(m.fraction[0], 0.25, 1e-12);    // undetected
  EXPECT_NEAR(m.fraction[1], 0.25, 1e-12);    // missing code only
  EXPECT_NEAR(m.fraction[3], 0.25, 1e-12);    // mc + ivdd
  EXPECT_NEAR(m.fraction[12], 0.25, 1e-12);   // iddq + iinput
  EXPECT_NEAR(m.detected(), 0.75, 1e-12);
  EXPECT_NEAR(m.by_mechanism(1), 0.5, 1e-12);   // missing code
  EXPECT_NEAR(m.only_mechanism(1), 0.25, 1e-12);
  EXPECT_NEAR(m.by_mechanism(4), 0.25, 1e-12);  // iddq
}

TEST(Global, AreaScalingWeightsMacros) {
  // Two macros: A fully detected, B fully undetected. A has 3x the
  // total area, so the global coverage is 75%.
  MacroContribution a;
  a.name = "A";
  a.cell_area = 1.0;
  a.instance_count = 3;
  a.outcomes = {{outcome(true, false, false, false), 5.0}};
  MacroContribution b;
  b.name = "B";
  b.cell_area = 1.0;
  b.instance_count = 1;
  b.outcomes = {{outcome(false, false, false, false), 50.0}};
  const VennResult venn = compile_global({a, b});
  EXPECT_NEAR(venn.detected(), 0.75, 1e-12);
  EXPECT_NEAR(venn.undetected, 0.25, 1e-12);
}

TEST(Global, ZeroAreaThrows) {
  MacroContribution a;
  a.cell_area = 0.0;
  a.outcomes = {{outcome(true, false, false, false), 1.0}};
  EXPECT_THROW(compile_global({a}), util::InvalidInputError);
}

TEST(Global, MacroWithNoOutcomesIgnored) {
  MacroContribution a;
  a.cell_area = 1.0;
  a.outcomes = {{outcome(true, false, false, false), 1.0}};
  MacroContribution empty;
  empty.cell_area = 9.0;
  const VennResult venn = compile_global({a, empty});
  EXPECT_NEAR(venn.detected(), 1.0, 1e-12);
}

TEST(Envelope, ClassifiesPerKind) {
  MeasurementLayout layout;
  layout.add("ivdd", MeasurementKind::kIVdd);
  layout.add("iddq", MeasurementKind::kIddq);
  layout.add("iin", MeasurementKind::kIinput);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 50; ++i)
    samples.push_back({1e-3 + i * 1e-6, 1e-9, 5e-6});
  BandPolicy policy;
  policy.abs_floor = 1e-6;
  const GoodEnvelope envelope = build_envelope(layout, samples, policy);

  EXPECT_FALSE(envelope.classify({1.02e-3, 1e-9, 5e-6}).any());
  const auto ivdd_fault = envelope.classify({5e-3, 1e-9, 5e-6});
  EXPECT_TRUE(ivdd_fault.ivdd);
  EXPECT_FALSE(ivdd_fault.iddq);
  const auto iddq_fault = envelope.classify({1.02e-3, 1e-3, 5e-6});
  EXPECT_TRUE(iddq_fault.iddq);
  const auto iin_fault = envelope.classify({1.02e-3, 1e-9, 1e-3});
  EXPECT_TRUE(iin_fault.iinput);
}

TEST(Envelope, FloorsWidenTightBands) {
  MeasurementLayout layout;
  layout.add("iddq", MeasurementKind::kIddq);
  std::vector<std::vector<double>> samples(20, {1e-9});  // zero spread
  BandPolicy policy;
  policy.abs_floor = 1e-6;
  const GoodEnvelope envelope = build_envelope(layout, samples, policy);
  // Within the 1 uA noise floor: not detectable.
  EXPECT_FALSE(envelope.classify({5e-7}).any());
  EXPECT_TRUE(envelope.classify({5e-6}).any());
}

TEST(Envelope, RelativeFloor) {
  MeasurementLayout layout;
  layout.add("ivdd", MeasurementKind::kIVdd);
  std::vector<std::vector<double>> samples(20, {1e-3});
  BandPolicy policy;
  policy.abs_floor = 0.0;
  policy.rel_floor = 0.05;
  const GoodEnvelope envelope = build_envelope(layout, samples, policy);
  EXPECT_FALSE(envelope.classify({1.04e-3}).any());
  EXPECT_TRUE(envelope.classify({1.06e-3}).any());
}

TEST(Envelope, DilutionWidensSharedMeasurementBands) {
  // Chip-level IVdd sums over N instances: the band a single faulty
  // instance must escape scales by N; IDDQ stays floor-limited.
  MeasurementLayout layout;
  layout.add("ivdd", MeasurementKind::kIVdd);
  layout.add("iddq", MeasurementKind::kIddq);
  util::Rng rng(7);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 2000; ++i)
    samples.push_back({rng.normal(1e-3, 1e-5), rng.normal(0.0, 1e-8)});
  BandPolicy undiluted;
  undiluted.abs_floor = 1e-6;
  undiluted.rel_floor = 0.0;
  BandPolicy diluted = undiluted;
  diluted.ivdd_dilution = 256.0;
  const auto tight = build_envelope(layout, samples, undiluted);
  const auto wide = build_envelope(layout, samples, diluted);
  // A +1 mA fault deviation: visible per-instance, hidden at chip level.
  EXPECT_TRUE(tight.classify({2e-3, 0.0}).ivdd);
  EXPECT_FALSE(wide.classify({2e-3, 0.0}).ivdd);
  // IDDQ band is not diluted: a 10 uA quiescent fault stays visible.
  EXPECT_TRUE(wide.classify({1e-3, 1e-5}).iddq);
  // But a gross supply fault still escapes nothing.
  EXPECT_TRUE(wide.classify({1.0, 0.0}).ivdd);
}

TEST(Envelope, MismatchedSampleThrows) {
  MeasurementLayout layout;
  layout.add("a", MeasurementKind::kIVdd);
  EXPECT_THROW(build_envelope(layout, {{1.0, 2.0}}, {}),
               util::InvalidInputError);
  EXPECT_THROW(build_envelope(layout, {}, {}), util::InvalidInputError);
}

// A measurement without spread still gets a band of the floor's width.
TEST(EnvelopeBuilder, MinWidthGuardsDeterministicMeasurements) {
  MeasurementLayout layout;
  layout.add("m", MeasurementKind::kOther);
  std::vector<std::vector<double>> samples(10, {5.0});
  BandPolicy policy;
  policy.abs_floor = 0.1;
  policy.rel_floor = 0.0;
  const GoodEnvelope envelope = build_envelope(layout, samples, policy);
  EXPECT_NEAR(envelope.space().band(0).width(), 0.2, 1e-12);
  EXPECT_TRUE(envelope.inside({5.05}));
  EXPECT_FALSE(envelope.inside({5.2}));
}

// Every sample must have the layout's size, wherever it sits in the
// population.
TEST(EnvelopeBuilder, InconsistentSampleSizeThrows) {
  MeasurementLayout layout;
  layout.add("a", MeasurementKind::kIVdd);
  layout.add("b", MeasurementKind::kIddq);
  EXPECT_NO_THROW(build_envelope(layout, {{1.0, 2.0}}, {}));
  EXPECT_THROW(build_envelope(layout, {{1.0, 2.0}, {1.0}}, {}),
               util::InvalidInputError);
}

}  // namespace
}  // namespace dot::macro

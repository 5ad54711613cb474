#include <gtest/gtest.h>

#include "testgen/spec_test.hpp"
#include "testgen/testset.hpp"

namespace dot::testgen {
namespace {

macro::WeightedOutcome wo(bool mc, bool ivdd, bool iddq, bool iinput,
                          double weight) {
  macro::DetectionOutcome o;
  o.missing_code = mc;
  o.ivdd = ivdd;
  o.iddq = iddq;
  o.iinput = iinput;
  return {o, weight};
}

TEST(TestTime, MissingCodeRunsAtSpeed) {
  TesterTiming timing;
  const double t = test_time({Mechanism::kMissingCode}, timing);
  EXPECT_NEAR(t, 1000 * 100e-9, 1e-12);  // 100 us
}

TEST(TestTime, CurrentMeasurementsShareSettling) {
  TesterTiming timing;
  const double one = test_time({Mechanism::kIVdd}, timing);
  const double two = test_time({Mechanism::kIVdd, Mechanism::kIddq}, timing);
  // Adding a second current mechanism costs measurement time only.
  EXPECT_NEAR(two - one, 6 * timing.current_measure, 1e-12);
  EXPECT_NEAR(one, 6 * (timing.current_settle + timing.current_measure),
              1e-12);
}

TEST(TestTime, EmptySetIsFree) {
  EXPECT_DOUBLE_EQ(test_time({}), 0.0);
}

TEST(Coverage, UnionOfMechanisms) {
  std::vector<macro::WeightedOutcome> outcomes = {
      wo(true, false, false, false, 1.0),
      wo(false, true, false, false, 1.0),
      wo(false, false, false, false, 2.0),
  };
  EXPECT_NEAR(coverage(outcomes, {Mechanism::kMissingCode}), 0.25, 1e-12);
  EXPECT_NEAR(coverage(outcomes, {Mechanism::kMissingCode, Mechanism::kIVdd}),
              0.5, 1e-12);
  EXPECT_NEAR(coverage(outcomes, {}), 0.0, 1e-12);
}

TEST(Optimize, PicksMechanismsGreedily) {
  // IVdd detects 60%, missing code detects 50% (40% overlap), IDDQ adds
  // a unique 10%, Iinput adds nothing.
  std::vector<macro::WeightedOutcome> outcomes = {
      wo(true, true, false, false, 40),   // both
      wo(false, true, false, false, 20),  // ivdd only
      wo(true, false, false, false, 10),  // mc only
      wo(false, false, true, false, 10),  // iddq only
      wo(false, false, false, false, 20)  // undetected
  };
  const auto set = optimize_test_set(outcomes);
  EXPECT_NEAR(set.coverage, 0.8, 1e-12);
  // All three useful mechanisms chosen, the useless one skipped.
  EXPECT_EQ(set.mechanisms.size(), 3u);
  for (Mechanism m : set.mechanisms) EXPECT_NE(m, Mechanism::kIinput);
  EXPECT_GT(set.time_seconds, 0.0);
}

TEST(Optimize, EmptyOutcomesYieldEmptySet) {
  const auto set = optimize_test_set({});
  EXPECT_TRUE(set.mechanisms.empty());
  EXPECT_DOUBLE_EQ(set.coverage, 0.0);
}

TEST(Optimize, PrefersCheapMechanismFirst) {
  // Missing code and IVdd both detect the same 50%; missing code is far
  // cheaper, so the greedy pass picks it and stops.
  std::vector<macro::WeightedOutcome> outcomes = {
      wo(true, true, false, false, 1.0), wo(false, false, false, false, 1.0)};
  const auto set = optimize_test_set(outcomes);
  ASSERT_EQ(set.mechanisms.size(), 1u);
  EXPECT_EQ(set.mechanisms[0], Mechanism::kMissingCode);
}

TEST(MechanismName, AllNamed) {
  EXPECT_EQ(mechanism_name(Mechanism::kMissingCode), "missing code");
  EXPECT_EQ(mechanism_name(Mechanism::kIddq), "IDDQ");
}

TEST(SpecTest, TimeAccountsAllComponents) {
  SpecTestTiming timing;
  const double t = spec_test_time(timing);
  // Dominated by per-measurement setup: 6 x 20 ms.
  EXPECT_GT(t, 0.12);
  EXPECT_LT(t, 0.2);
  timing.setup_per_measurement = 0.0;
  const double acquisition = spec_test_time(timing);
  EXPECT_NEAR(acquisition,
              256.0 * 64 * 100e-9 + 4096.0 * 8 * 100e-9, 1e-9);
}

TEST(SpecTest, CoverageFollowsSignatureMix) {
  using macro::VoltageSignature;
  std::vector<SignatureWeight> sigs = {
      {VoltageSignature::kOutputStuckAt, 50.0},
      {VoltageSignature::kClockValue, 30.0},
      {VoltageSignature::kNoDeviation, 20.0},
  };
  SpecCoverageModel model;
  model.clock_value_catch = 0.5;
  const double cov = spec_test_coverage(sigs, model);
  EXPECT_NEAR(cov, (50.0 + 15.0) / 100.0, 1e-12);
  EXPECT_DOUBLE_EQ(spec_test_coverage({}), 0.0);
}

}  // namespace
}  // namespace dot::testgen

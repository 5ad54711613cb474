#include <gtest/gtest.h>

#include <cmath>

#include "macro/diagnosis.hpp"
#include "testgen/quality.hpp"
#include "util/error.hpp"

namespace dot::macro {
namespace {

fault::FaultClass make_class(const std::string& a, const std::string& b,
                             std::size_t count) {
  fault::FaultClass cls;
  cls.representative.kind = fault::FaultKind::kShort;
  cls.representative.nets = {std::min(a, b), std::max(a, b)};
  cls.count = count;
  return cls;
}

DetectionOutcome outcome(bool mc, bool ivdd, bool iddq, bool iinput) {
  DetectionOutcome o;
  o.missing_code = mc;
  o.ivdd = ivdd;
  o.iddq = iddq;
  o.iinput = iinput;
  return o;
}

TEST(Diagnosis, RanksBySyndromeAndMagnitude) {
  FaultDictionary dict;
  dict.add(make_class("a", "b", 100), outcome(true, false, false, false));
  dict.add(make_class("c", "d", 10), outcome(true, false, false, false));
  dict.add(make_class("e", "f", 50), outcome(false, false, true, false));

  Syndrome observed;
  observed.missing_code = true;
  const auto candidates = dict.diagnose(observed);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].fault.nets, (std::vector<std::string>{"a", "b"}));
  EXPECT_NEAR(candidates[0].posterior, 100.0 / 110.0, 1e-12);
  EXPECT_NEAR(candidates[1].posterior, 10.0 / 110.0, 1e-12);

  Syndrome iddq_only;
  iddq_only.iddq = true;
  const auto iddq_candidates = dict.diagnose(iddq_only);
  ASSERT_EQ(iddq_candidates.size(), 1u);
  EXPECT_EQ(iddq_candidates[0].fault.nets,
            (std::vector<std::string>{"e", "f"}));
  EXPECT_DOUBLE_EQ(iddq_candidates[0].posterior, 1.0);
}

TEST(Diagnosis, UnknownSyndromeIsEmpty) {
  FaultDictionary dict;
  dict.add(make_class("a", "b", 1), outcome(true, false, false, false));
  Syndrome unseen;
  unseen.ivdd = true;
  EXPECT_TRUE(dict.diagnose(unseen).empty());
}

TEST(Diagnosis, MaxCandidatesCaps) {
  FaultDictionary dict;
  for (int i = 0; i < 20; ++i)
    dict.add(make_class("n" + std::to_string(i), "m", 1),
             outcome(true, false, false, false));
  Syndrome s;
  s.missing_code = true;
  EXPECT_EQ(dict.diagnose(s, 5).size(), 5u);
}

TEST(Diagnosis, ResolutionMetrics) {
  // Perfectly separating dictionary: every class its own syndrome.
  FaultDictionary sharp;
  sharp.add(make_class("a", "b", 10), outcome(true, false, false, false));
  sharp.add(make_class("c", "d", 10), outcome(false, true, false, false));
  const auto r1 = sharp.resolution();
  EXPECT_EQ(r1.distinct_syndromes, 2);
  EXPECT_NEAR(r1.expected_posterior, 1.0, 1e-12);

  // Degenerate dictionary: everything in one bucket with equal weights.
  FaultDictionary blunt;
  for (int i = 0; i < 4; ++i)
    blunt.add(make_class("x" + std::to_string(i), "y", 5),
              outcome(true, false, false, false));
  const auto r2 = blunt.resolution();
  EXPECT_EQ(r2.distinct_syndromes, 1);
  EXPECT_NEAR(r2.expected_posterior, 0.25, 1e-12);
}

}  // namespace
}  // namespace dot::macro

namespace dot::testgen {
namespace {

TEST(Quality, PoissonYield) {
  ProcessQuality q;
  q.defect_density_per_cm2 = 1.0;
  q.die_area_cm2 = 0.3;
  EXPECT_NEAR(poisson_yield(q), std::exp(-0.3), 1e-12);
  q.defect_density_per_cm2 = 0.0;
  EXPECT_DOUBLE_EQ(poisson_yield(q), 1.0);
}

TEST(Quality, WilliamsBrownLimits) {
  // Full coverage ships zero defects; zero coverage ships 1 - Y.
  EXPECT_DOUBLE_EQ(defect_level(0.7, 1.0), 0.0);
  EXPECT_NEAR(defect_level(0.7, 0.0), 0.3, 1e-12);
  // Monotone in coverage.
  EXPECT_GT(defect_level(0.7, 0.9), defect_level(0.7, 0.99));
}

TEST(Quality, PaperScaleNumbers) {
  // 93.3% vs 99.1% coverage at a plausible defect density: the DfT
  // measures cut shipped defects by roughly the coverage-gap ratio.
  ProcessQuality q;
  q.defect_density_per_cm2 = 0.8;
  q.die_area_cm2 = 0.25;
  // Defective parts per million shipped.
  const double before = 1e6 * defect_level(poisson_yield(q), 0.933);
  const double after = 1e6 * defect_level(poisson_yield(q), 0.991);
  EXPECT_GT(before, 5.0 * after);
  EXPECT_GT(before, 1000.0);  // wafer-sort-only would ship >1000 DPM
  EXPECT_LT(after, 2000.0);
}

TEST(Quality, RejectsBadArguments) {
  EXPECT_THROW(defect_level(0.0, 0.5), util::InvalidInputError);
  EXPECT_THROW(defect_level(0.5, 1.5), util::InvalidInputError);
  ProcessQuality q;
  q.die_area_cm2 = 0.0;
  EXPECT_THROW(poisson_yield(q), util::InvalidInputError);
}

}  // namespace
}  // namespace dot::testgen

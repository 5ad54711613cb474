#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dot::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b();
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, BelowCoversRangeWithoutBias) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, WeightedPickMatchesAPerDrawSum) {
  // The pick sums its weights once; every draw must still be the one of
  // a draw that sums them itself, in the same order.
  const std::vector<double> weights = {40.0, 30.0, 13.0, 7.0,  0.2,
                                       0.16, 0.1,  0.06, 0.7,  0.5,
                                       0.08, 0.06, 1.2,  0.8,  1.0};
  auto reference = [&weights](Rng& rng) {
    double total = 0.0;
    for (double w : weights) total += w;
    double pick = rng.uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      pick -= weights[i];
      if (pick < 0.0) return i;
    }
    return weights.size() - 1;
  };
  const WeightedPick pick(weights);
  Rng a(37), b(37);
  for (int i = 0; i < 20000; ++i) ASSERT_EQ(pick(a), reference(b)) << i;
  EXPECT_EQ(a(), b());
  EXPECT_THROW(WeightedPick(std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
}

TEST(Rng, WeightedRejectsAllZero) {
  Rng rng(29);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_THROW(rng.weighted(weights), std::invalid_argument);
}

TEST(Rng, PowerLawStaysInRange) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.power_law(1.0, 100.0, 3.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(Rng, PowerLawFavorsSmallSizes) {
  // For density ~ 1/x^3 on [1, 100], P(X < 2) = (1 - 2^-2)/(1 - 100^-2)
  // = 0.7501...; check the empirical fraction.
  Rng rng(37);
  int below2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    below2 += rng.power_law(1.0, 100.0, 3.0) < 2.0;
  EXPECT_NEAR(static_cast<double>(below2) / n, 0.750, 0.01);
}

TEST(Rng, PowerLawVariateBoundIsConservativeAndTight) {
  // Every variate below variate_below(x) maps below x: checked on the
  // 2,000 representable variates just under the bound, where rounding
  // would show first. The bound is also tight: the sample at it sits
  // within 1e-8 of x, so it is not trivially small.
  const struct {
    double x_min, x_max, exponent;
  } laws[] = {{0.5, 20.0, 3.0}, {1.0, 100.0, 2.5}, {0.5, 20.0, 1.0},
              {0.5, 20.0, 0.5}, {0.3, 0.3, 3.0}};
  for (const auto& law : laws) {
    const PowerLaw sample(law.x_min, law.x_max, law.exponent);
    for (double x = law.x_min; x < 1.2 * law.x_max; x *= 1.0137) {
      const double v = sample.variate_below(x);
      if (x <= law.x_min) {
        EXPECT_EQ(v, 0.0) << x;
        continue;
      }
      // A one-point law may settle for no bound at all.
      if (law.x_min < law.x_max) ASSERT_GT(v, 0.0) << x;
      double u = v;
      for (int k = 0; k < 2000; ++k) {
        u = std::nextafter(u, 0.0);
        ASSERT_LT(sample.at(u), x) << law.exponent << " " << x << " " << u;
      }
      if (law.x_min < law.x_max && v < 1.0)
        EXPECT_GT(sample.at(v), x * (1.0 - 1e-8)) << x;
    }
  }
  // The draw is at() of one uniform from the same stream.
  Rng a(43), b(43);
  const PowerLaw sample(0.5, 20.0, 3.0);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(sample(a), sample.at(b.uniform()));
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Band, ContainsEdgesInclusive) {
  Band b{-1.0, 2.0};
  EXPECT_TRUE(b.contains(-1.0));
  EXPECT_TRUE(b.contains(2.0));
  EXPECT_FALSE(b.contains(2.0001));
  EXPECT_FALSE(b.contains(-1.0001));
}

TEST(SignatureSpace, InsideRequiresAllDimensions) {
  SignatureSpace space;
  space.add_dimension("ivdd", Band{1.0, 2.0});
  space.add_dimension("iddq", Band{-0.1, 0.1});
  EXPECT_TRUE(space.inside({1.5, 0.0}));
  EXPECT_FALSE(space.inside({2.5, 0.0}));
  EXPECT_FALSE(space.inside({1.5, 0.2}));
  EXPECT_EQ(space.violations({2.5, 0.2}).size(), 2u);
}

TEST(SignatureSpace, DimensionMismatchThrows) {
  SignatureSpace space;
  space.add_dimension("a", Band{0, 1});
  EXPECT_THROW(space.inside({0.5, 0.5}), std::invalid_argument);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"fault", "%"});
  t.add_row({"short", "95.5"});
  t.add_row({"open", "0.03"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| fault |"), std::string::npos);
  EXPECT_NE(s.find("| short |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Formatting, FmtPctSi) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(pct(0.933, 1), "93.3");
  EXPECT_EQ(si(3.2e-6, "s", 2), "3.20 us");
  EXPECT_EQ(si(4.4e-3, "A", 1), "4.4 mA");
  EXPECT_EQ(si(2000.0, "Ohm", 0), "2 kOhm");
}

}  // namespace
}  // namespace dot::util

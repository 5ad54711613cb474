#include <gtest/gtest.h>

#include <cmath>

#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dot::numeric {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Lu, SolvesSmallSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const auto x = DenseLu(a).solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 2.0;
  a(1, 1) = 0.0;
  const auto x = DenseLu(a).solve({3.0, 4.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, DetectsSingularity) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  DenseLu lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_THROW(lu.solve({1.0, 1.0}), dot::util::ConvergenceError);
}

TEST(Lu, RandomRoundTrip) {
  dot::util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(30);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    // Diagonal boost keeps the random matrix comfortably nonsingular.
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.normal();
    std::vector<double> b(n, 0.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) b[r] += a(r, c) * x_true[c];
    const auto x = DenseLu(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Lu, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(DenseLu{a}, std::invalid_argument);
}

TEST(Lu, SolveSizeMismatchThrows) {
  Matrix eye(3, 3);
  for (std::size_t i = 0; i < 3; ++i) eye(i, i) = 1.0;
  DenseLu lu(eye);
  EXPECT_THROW(lu.solve({1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace dot::numeric

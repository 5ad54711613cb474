// Property-based tests of the circuit simulator:
//  - analytic MOSFET derivatives match finite differences over a bias
//    grid (the Newton Jacobian is exactly the model's linearization);
//  - DC solutions satisfy Kirchhoff's current law at every node;
//  - linear networks obey superposition;
//  - passive-network node voltages stay within the source hull.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "spice/dc.hpp"
#include "spice/devices.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "util/rng.hpp"

namespace dot::spice {
namespace {

// ------------------------------------------------------ MOSFET model

struct BiasPoint {
  double vgs, vds, vbs;
};

class MosDerivativeTest : public ::testing::TestWithParam<BiasPoint> {};

TEST_P(MosDerivativeTest, AnalyticDerivativesMatchFiniteDifference) {
  const BiasPoint bias = GetParam();
  MosModel m;
  m.gamma = 0.45;
  m.lambda = 0.06;
  const double wl = 8.0;
  const double h = 1e-7;

  const auto op = eval_mos(m, wl, bias.vgs, bias.vds, bias.vbs);
  const double gm_fd =
      (eval_mos(m, wl, bias.vgs + h, bias.vds, bias.vbs).ids -
       eval_mos(m, wl, bias.vgs - h, bias.vds, bias.vbs).ids) /
      (2 * h);
  const double gds_fd =
      (eval_mos(m, wl, bias.vgs, bias.vds + h, bias.vbs).ids -
       eval_mos(m, wl, bias.vgs, bias.vds - h, bias.vbs).ids) /
      (2 * h);
  const double gmb_fd =
      (eval_mos(m, wl, bias.vgs, bias.vds, bias.vbs + h).ids -
       eval_mos(m, wl, bias.vgs, bias.vds, bias.vbs - h).ids) /
      (2 * h);

  const double scale = std::max(1e-6, std::fabs(op.ids));
  EXPECT_NEAR(op.gm, gm_fd, 1e-4 * scale + 1e-12) << "vgs derivative";
  EXPECT_NEAR(op.gds, gds_fd, 1e-4 * scale + 1e-12) << "vds derivative";
  EXPECT_NEAR(op.gmb, gmb_fd, 1e-4 * scale + 1e-12) << "vbs derivative";
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosDerivativeTest,
    ::testing::Values(
        BiasPoint{2.0, 3.0, 0.0},    // saturation
        BiasPoint{2.0, 0.4, 0.0},    // triode
        BiasPoint{0.3, 2.0, 0.0},    // subthreshold
        BiasPoint{2.0, 3.0, -1.5},   // back bias
        BiasPoint{1.1, 0.1, -0.3},   // weak triode, back bias
        BiasPoint{2.5, -0.4, 0.0},   // reverse conduction
        BiasPoint{1.5, -2.0, -0.5},  // strongly reversed
        BiasPoint{0.69, 1.0, 0.0}    // just below threshold
        ));

TEST(MosModelProperty, CurrentIsAntisymmetricUnderTerminalSwap) {
  MosModel m;
  m.gamma = 0.4;
  util::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const double vg = rng.uniform(0.0, 5.0);
    const double vd = rng.uniform(0.0, 5.0);
    const double vs = rng.uniform(0.0, 5.0);
    const double vb = -rng.uniform(0.0, 1.0);
    const double fwd = eval_mos(m, 4.0, vg - vs, vd - vs, vb - vs).ids;
    const double rev = eval_mos(m, 4.0, vg - vd, vs - vd, vb - vd).ids;
    EXPECT_NEAR(fwd, -rev, 1e-12 + 1e-9 * std::fabs(fwd));
  }
}

TEST(MosModelProperty, CurrentMonotonicInVgs) {
  const MosModel m;
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= 5.0; vgs += 0.05) {
    const double ids = eval_mos(m, 4.0, vgs, 2.0, 0.0).ids;
    EXPECT_GE(ids, prev - 1e-15) << "at vgs = " << vgs;
    prev = ids;
  }
}

// --------------------------------------------------------- DC solver

/// Builds a random resistor network over `nodes` nodes with a couple of
/// sources, always including paths to ground.
Netlist random_resistive_network(util::Rng& rng, int nodes) {
  Netlist n;
  auto node_name = [](int i) { return i == 0 ? std::string("0") : "n" + std::to_string(i); };
  // Spanning chain guarantees connectivity.
  for (int i = 1; i <= nodes; ++i)
    n.add_resistor("Rchain" + std::to_string(i), node_name(i - 1),
                   node_name(i), rng.uniform(100.0, 10e3));
  // Random extra resistors.
  const int extra = nodes;
  for (int e = 0; e < extra; ++e) {
    const int a = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes) + 1));
    int b = static_cast<int>(rng.below(static_cast<std::uint64_t>(nodes) + 1));
    if (a == b) b = (b + 1) % (nodes + 1);
    n.add_resistor("Rx" + std::to_string(e), node_name(a), node_name(b),
                   rng.uniform(100.0, 50e3));
  }
  n.add_vsource("V1", node_name(1), "0",
                SourceSpec::dc(rng.uniform(-5.0, 5.0)));
  n.add_vsource("V2", "drive", "0", SourceSpec::dc(rng.uniform(-5.0, 5.0)));
  n.add_resistor("Rdrive", "drive", node_name(nodes),
                 rng.uniform(100.0, 10e3));
  return n;
}

class RandomNetworkTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetworkTest, DcSolutionSatisfiesKcl) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int nodes = 3 + static_cast<int>(rng.below(12));
  const Netlist n = random_resistive_network(rng, nodes);
  const MnaMap map(n);
  const auto result = dc_operating_point(n, map);
  ASSERT_TRUE(result.converged);

  // KCL: at every non-ground node, resistor + source currents sum to 0.
  std::vector<double> residual(n.node_count(), 0.0);
  for (const auto& device : n.devices()) {
    if (const auto* r = std::get_if<Resistor>(&device)) {
      const double i =
          (map.voltage(result.x, r->a) - map.voltage(result.x, r->b)) /
          r->ohms;
      residual[static_cast<std::size_t>(r->a)] -= i;
      residual[static_cast<std::size_t>(r->b)] += i;
    } else if (const auto* v = std::get_if<VoltageSource>(&device)) {
      const double i = map.branch_current(result.x, v->name);
      residual[static_cast<std::size_t>(v->pos)] -= i;
      residual[static_cast<std::size_t>(v->neg)] += i;
    }
  }
  for (std::size_t node = 1; node < n.node_count(); ++node)
    EXPECT_NEAR(residual[node], 0.0, 1e-7) << "KCL at node " << node;
}

TEST_P(RandomNetworkTest, LinearNetworkObeysSuperposition) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const int nodes = 3 + static_cast<int>(rng.below(8));
  Netlist n = random_resistive_network(rng, nodes);
  const MnaMap map(n);
  const auto base = dc_operating_point(n, map);

  // Double every independent source: every node voltage doubles.
  for (auto& device : n.devices()) {
    if (auto* v = std::get_if<VoltageSource>(&device)) v->spec.scale(2.0);
  }
  const auto doubled = dc_operating_point(n, map);
  for (std::size_t i = 0; i < map.node_unknowns(); ++i)
    EXPECT_NEAR(doubled.x[i], 2.0 * base.x[i],
                1e-6 * (1.0 + std::fabs(base.x[i])));
}

TEST_P(RandomNetworkTest, SparseSolverMatchesDense) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  const int nodes = 3 + static_cast<int>(rng.below(12));
  const Netlist n = random_resistive_network(rng, nodes);
  const MnaMap map(n);

  SolverOptions dense_opts;
  dense_opts.sparse_threshold = SIZE_MAX;  // always dense
  SolverOptions sparse_opts;
  sparse_opts.sparse_threshold = 0;  // always sparse
  SolverContext dense_ctx(dense_opts);
  SolverContext sparse_ctx(sparse_opts);

  const auto dense = dc_operating_point(n, map, {}, nullptr, &dense_ctx);
  const auto sparse = dc_operating_point(n, map, {}, nullptr, &sparse_ctx);
  ASSERT_TRUE(dense.converged);
  ASSERT_TRUE(sparse.converged);
  ASSERT_EQ(dense.x.size(), sparse.x.size());
  for (std::size_t i = 0; i < dense.x.size(); ++i)
    EXPECT_NEAR(dense.x[i], sparse.x[i], 1e-10 * (1.0 + std::fabs(dense.x[i])))
        << "unknown " << i;
}

TEST_P(RandomNetworkTest, PassiveVoltagesInsideSourceHull) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const int nodes = 3 + static_cast<int>(rng.below(10));
  Netlist n;
  auto node_name = [](int i) {
    return i == 0 ? std::string("0") : "n" + std::to_string(i);
  };
  for (int i = 1; i <= nodes; ++i)
    n.add_resistor("R" + std::to_string(i), node_name(i - 1), node_name(i),
                   rng.uniform(100.0, 10e3));
  const double vsrc = rng.uniform(-5.0, 5.0);
  n.add_vsource("V1", node_name(nodes), "0", SourceSpec::dc(vsrc));
  const MnaMap map(n);
  const auto result = dc_operating_point(n, map);
  const double lo = std::min(0.0, vsrc) - 1e-9;
  const double hi = std::max(0.0, vsrc) + 1e-9;
  for (std::size_t i = 0; i < map.node_unknowns(); ++i) {
    EXPECT_GE(result.x[i], lo);
    EXPECT_LE(result.x[i], hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace dot::spice

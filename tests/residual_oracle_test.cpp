// An assembly oracle that shares no code with the solver: the nonlinear
// KCL and branch residual of accepted transient points and of DC
// operating points, recomputed in a naive device loop. The loop
// evaluates resistor currents, backward-Euler capacitor companions from
// the previous accepted point (capacitors are open at a DC point), the
// scalar eval_mos drain current, source branch currents and the
// node-to-ground gshunt, all straight from the netlist. It never calls
// assemble_mna, the StampProgram replay or MosKernel, so a stamping bug
// that every solver path shares (a wrong sign or slot in the replay, a
// mis-mapped branch) shows up as a residual no Newton step can explain.
//
// Bound. An accepted point x is the iterate after an undamped Newton
// step Δ from x_k, which solved J(x_k)Δ = -F(x_k) with every node move
// below vtol (or, on the loose path, below loose_vtol). Resistors,
// capacitor companions, sources and gshunt are linear in x, so they
// leave no residual beyond rounding. Only MOSFETs do: each contributes
// its linearization error ids(x) - ids(x_k) - gΔv, where g is gm, gds or
// gmb and Δv a terminal voltage difference. Each |Δv| is at most
// 2·loose_vtol, and the error is at most 2·G·|Δv|, where G is the
// device's |gm| + |gds| + |gmb|. The factor 2 covers the Jacobian moving
// between x_k and x; over a 2 mV step the fastest model term, the
// subthreshold exponential with n·kT/q ≈ 39 mV, changes by about 5 %.
// So a KCL row's bound is 4·loose_vtol·ΣG over the MOSFETs whose drain
// or source is the node (no current enters a gate or bulk), plus 1e-9
// of the sum of |current| terms for rounding. Source branch rows are
// linear and get the rounding term only. With loose_vtol = 1e-3 V that
// is 4e-7 A on a node with 1e-4 S of attached conductance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "defect/simulate.hpp"
#include "fault/model.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/dc_bench.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "flashadc/tech.hpp"
#include "spice/dc.hpp"
#include "spice/devices.hpp"
#include "spice/netlist.hpp"
#include "spice/transient.hpp"

namespace dot {
namespace {

using spice::NodeId;

// Rounding floors: the linear solve's backward error spreads across
// rows, so a row with only tiny attached currents still carries about
// eps * |A| * |x| of residual. 1 pA and 1 pV are far above that (the
// measured worst is ~1e-17 A) and far below any measurement band.
constexpr double kAbsAmps = 1e-12;
constexpr double kAbsVolts = 1e-12;

/// Worst residual of a run, in units of its per-row bound.
struct ResidualCheck {
  double worst_ratio = 0.0;
  double worst_residual = 0.0;  ///< A (KCL) or V (branch) at worst_ratio.
  std::string worst_row;
  double max_kcl_amps = 0.0;  ///< Largest |KCL residual| of any row.
  std::size_t points = 0;
};

struct Row {
  double sum = 0.0;        ///< Signed residual.
  double magnitude = 0.0;  ///< Sum of |term|, the rounding scale.
  double mos_g = 0.0;  ///< Sum of |gm| + |gds| + |gmb| of the MOSFETs
                       ///< whose drain or source is this node.
  void add(double term) {
    sum += term;
    magnitude += std::fabs(term);
  }
};

/// The KCL rows (current leaving each node through every attached
/// device) and the voltage-source branch rows of one point x at time t.
/// `x_prev` is the previous accepted point of a transient, for the
/// backward-Euler capacitor companions over `dt`; at a DC point it is
/// null and capacitors are open.
struct PointRows {
  std::vector<Row> kcl;
  std::vector<std::pair<std::string, Row>> branch;
};

PointRows point_rows(const spice::Netlist& netlist, const spice::MnaMap& map,
                     const std::vector<double>& x,
                     const std::vector<double>* x_prev, double t, double dt,
                     double gshunt) {
  auto v = [](const std::vector<double>& s, NodeId n) {
    return n == spice::kGround ? 0.0 : s[static_cast<std::size_t>(n - 1)];
  };
  PointRows rows;
  std::vector<Row>& kcl = rows.kcl;
  kcl.resize(netlist.node_count());
  auto leave = [&kcl](NodeId from, NodeId to, double amps) {
    kcl[static_cast<std::size_t>(from)].add(amps);
    kcl[static_cast<std::size_t>(to)].add(-amps);
  };
  for (std::size_t n = 1; n < kcl.size(); ++n)
    kcl[n].add(gshunt * v(x, static_cast<NodeId>(n)));
  for (const auto& device : netlist.devices()) {
    if (const auto* r = std::get_if<spice::Resistor>(&device)) {
      leave(r->a, r->b, (v(x, r->a) - v(x, r->b)) / r->ohms);
    } else if (const auto* c = std::get_if<spice::Capacitor>(&device)) {
      if (x_prev == nullptr) continue;
      const double dv = (v(x, c->a) - v(x, c->b)) -
                        (v(*x_prev, c->a) - v(*x_prev, c->b));
      leave(c->a, c->b, c->farads / dt * dv);
    } else if (const auto* s = std::get_if<spice::VoltageSource>(&device)) {
      const double i = x[map.branch_index(s->name)];
      leave(s->pos, s->neg, i);
      Row row;
      row.add(v(x, s->pos) - v(x, s->neg));
      row.add(-s->spec.eval(t));
      rows.branch.emplace_back(s->name, row);
    } else if (const auto* m = std::get_if<spice::Mosfet>(&device)) {
      const double sign = m->type == spice::MosType::kNmos ? 1.0 : -1.0;
      const double vs = v(x, m->source);
      const auto op = spice::eval_mos(
          m->model, m->w / m->l, sign * (v(x, m->gate) - vs),
          sign * (v(x, m->drain) - vs), sign * (v(x, m->bulk) - vs));
      leave(m->drain, m->source, sign * op.ids);
      const double g =
          std::fabs(op.gm) + std::fabs(op.gds) + std::fabs(op.gmb);
      kcl[static_cast<std::size_t>(m->drain)].mos_g += g;
      kcl[static_cast<std::size_t>(m->source)].mos_g += g;
    }
  }
  return rows;
}

/// Judges every row of one point against its bound; `at` names the
/// point in the worst row's label.
void judge_point(const spice::Netlist& netlist, const PointRows& rows,
                 double loose, const std::string& at, ResidualCheck& check) {
  auto judge = [&check](const std::string& name, const Row& row,
                        double bound) {
    const double ratio = std::fabs(row.sum) / bound;
    if (ratio > check.worst_ratio) {
      check.worst_ratio = ratio;
      check.worst_residual = row.sum;
      check.worst_row = name;
    }
  };
  for (std::size_t n = 1; n < rows.kcl.size(); ++n) {
    const Row& row = rows.kcl[n];
    check.max_kcl_amps = std::max(check.max_kcl_amps, std::fabs(row.sum));
    judge("KCL " + netlist.node_name(static_cast<NodeId>(n)) + at, row,
          4.0 * loose * row.mos_g + 1e-9 * row.magnitude + kAbsAmps);
  }
  for (const auto& [name, row] : rows.branch)
    judge("branch " + name + at, row, 1e-9 * row.magnitude + kAbsVolts);
  ++check.points;
}

ResidualCheck check_residuals(const spice::Netlist& netlist,
                              const spice::TranOptions& options,
                              const spice::TranResult& result) {
  ResidualCheck check;
  for (std::size_t k = 10; k < result.steps(); k += 10) {
    const double t = result.time(k);
    char at[32];
    std::snprintf(at, sizeof at, " at t=%.4g ns", t * 1e9);
    judge_point(netlist,
                point_rows(netlist, result.map(), result.state(k),
                           &result.state(k - 1), t, t - result.time(k - 1),
                           options.newton.gshunt),
                options.newton.loose_vtol, at, check);
  }
  return check;
}

void expect_within_bound(const ResidualCheck& check,
                         std::size_t min_points = 31) {
  EXPECT_GE(check.points, min_points);
  EXPECT_LE(check.worst_ratio, 1.0)
      << check.worst_row << ": residual " << check.worst_residual;
  std::printf(
      "checked %zu points; worst %s: residual %.3e (%.3g of bound); "
      "largest |KCL residual| %.3e A\n",
      check.points, check.worst_row.c_str(), check.worst_residual,
      check.worst_ratio, check.max_kcl_amps);
}

TEST(ResidualOracle, ComparatorDecisionGrid) {
  const auto bench = flashadc::comparator_grid_bench();
  const auto macro = flashadc::build_comparator_netlist();
  for (const double dv : flashadc::kDecisionGrid) {
    SCOPED_TRACE("delta_v=" + std::to_string(dv));
    const auto netlist = bench.instantiate(macro, bench.mid_slice, dv);
    const auto result = spice::transient(netlist, bench.tran);
    expect_within_bound(check_residuals(netlist, bench.tran, result));
  }
}

TEST(ResidualOracle, Bank8GridPoint) {
  flashadc::BankOptions options;
  options.size = 8;
  const auto bench = flashadc::bank_grid_bench(options);
  const auto macro = flashadc::build_bank_netlist(options);
  const auto netlist = bench.instantiate(macro, bench.mid_slice,
                                         flashadc::kDecisionGrid.back());
  const auto result = spice::transient(netlist, bench.tran);
  expect_within_bound(check_residuals(netlist, bench.tran, result));
}

/// A DC macro: its cell (netlist and layout), its DC bench and the
/// supply net its sprinkle and fault models use.
struct DcMacro {
  const char* name;
  macro::MacroCell (*build)();
  flashadc::DcBench (*bench)();
  const char* vdd_net;
};

const DcMacro kDcMacros[] = {
    {"ladder", flashadc::build_ladder_macro, flashadc::ladder_dc_bench,
     "vdda"},
    {"biasgen", flashadc::build_biasgen_macro, flashadc::biasgen_dc_bench,
     "vdda"},
    {"clockgen", flashadc::build_clockgen_macro, flashadc::clockgen_dc_bench,
     "vddd"},
    {"decoder", flashadc::build_decoder_macro, flashadc::decoder_dc_bench,
     "vddd"},
};

/// Checks every drive state's operating point of `macro` on `bench`,
/// solved through `context` as the campaign solves it; `what` labels
/// the netlist. Returns whether every state converged.
bool check_dc_point(const flashadc::DcBench& bench,
                    const spice::Netlist& macro,
                    const flashadc::DcContext& context,
                    const std::string& what, ResidualCheck& check) {
  const spice::DcOptions options;  // the options solve_dc runs with
  return flashadc::solve_dc(
      bench, macro, &context,
      [&](int state, const spice::Netlist& driven, const spice::MnaMap& map,
          const std::vector<double>& x) {
        judge_point(driven,
                    point_rows(driven, map, x, nullptr, options.time, 0.0,
                               options.gshunt),
                    options.loose_vtol,
                    " (" + what + ", state " + std::to_string(state) + ")",
                    check);
      });
}

// DC operating points of the four DC benches: the fault-free macro and
// every variant of the first classes of a smoke-size sprinkle (8,000
// defects, 8 classes, the campaign's fault models), each in every drive
// state. A fault without an operating point has nothing to check; the
// campaign reads it as stuck-at.
TEST(ResidualOracle, DcOperatingPoints) {
  for (const DcMacro& dc : kDcMacros) {
    SCOPED_TRACE(dc.name);
    const macro::MacroCell cell = dc.build();
    const flashadc::DcBench bench = dc.bench();
    const auto context = flashadc::make_dc_context(bench, cell.netlist);
    ResidualCheck check;
    EXPECT_TRUE(
        check_dc_point(bench, cell.netlist, context, "fault-free", check));
    defect::CampaignOptions smoke;
    smoke.defect_count = 8000;
    smoke.vdd_net = dc.vdd_net;
    const auto sprinkle = defect::run_campaign(cell.layout, smoke);
    fault::FaultModelOptions models;
    models.vdd_net = dc.vdd_net;
    models.new_device_model = flashadc::nmos_model();
    const std::size_t classes = std::min<std::size_t>(
        8, sprinkle.classes.size());
    for (std::size_t c = 0; c < classes; ++c) {
      const fault::CircuitFault& rep = sprinkle.classes[c].representative;
      for (int v = 0; v < fault::model_variant_count(rep); ++v)
        check_dc_point(bench, fault::apply_fault(cell.netlist, rep, models, v),
                       context, rep.key() + " variant " + std::to_string(v),
                       check);
    }
    expect_within_bound(check, static_cast<std::size_t>(bench.states) *
                                   (1 + classes));
  }
}

}  // namespace
}  // namespace dot

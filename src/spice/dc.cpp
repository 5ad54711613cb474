#include "spice/dc.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "spice/resilience.hpp"
#include "util/error.hpp"

namespace dot::spice {

namespace {

using PhaseClock = std::chrono::steady_clock;

double phase_seconds(PhaseClock::time_point from, PhaseClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

DcResult newton_solve(const Netlist& netlist, const MnaMap& map,
                      std::vector<double> initial_guess,
                      const StampOptions& stamp, const DcOptions& options,
                      const std::vector<double>& x_prev_step,
                      SolverContext* solver) {
  const std::size_t n = map.size();
  DcResult result;
  result.x = std::move(initial_guess);
  if (result.x.size() != n) result.x.assign(n, 0.0);

  SolverContext local_solver;
  SolverContext& ctx = solver != nullptr ? *solver : local_solver;
  const bool sparse_path = ctx.use_sparse(n);
  const int depth = std::max(1, ctx.options().shamanskii_depth);

  std::vector<double> b;
  std::vector<double> x_new;
  double best_max_dv = std::numeric_limits<double>::infinity();
  std::vector<double> best_x;
  // Shamanskii reuse state: iterations solved since the factors were
  // last refreshed. Only the sparse path skips factorizations -- dense
  // assembly writes into the factor workspace, so its factors cannot
  // outlive an assembly.
  int since_factor = 0;
  bool have_factors = false;
  bool force_fresh = true;
  // A frozen Jacobian is only trustworthy near the iterate it was
  // factored at: device models switch regions over ~100 mV, so once
  // the iterate drifts further than that the stale solve mixes a fresh
  // RHS with an off-region linearization and can cycle without
  // converging (seen on from-zero transient steps, where nodes slew
  // rail to rail). Near a fixed point -- the campaign's warm-started
  // re-solves, where reuse pays -- drift stays below vtol and the
  // guard never fires.
  constexpr double kStaleDriftV = 0.1;
  std::vector<double> x_at_factor;
  double prev_max_dv = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Per-iteration wall-clock budget check (campaign resilience): a
    // class whose Newton iteration never settles throws TimeoutError
    // here instead of spinning through every continuation rung.
    EvalScope::check_deadline();
    double drift = 0.0;
    if (have_factors && depth > 1)
      for (std::size_t i = 0; i < map.node_unknowns(); ++i)
        drift = std::max(drift, std::fabs(result.x[i] - x_at_factor[i]));
    const bool refresh = force_fresh || !have_factors || !sparse_path ||
                         since_factor >= depth || drift > kStaleDriftV;
    // Phase-time attribution (only when a sink is attached; otherwise
    // the hot loop stays clock-free). The MOSFET kernel's device eval
    // self-reports into pt, so the assembly phase is the stamping wall
    // time minus that delta.
    PhaseTimes* const pt = ctx.phase_times();
    PhaseClock::time_point t0;
    double dev_before = 0.0;
    if (pt != nullptr) {
      t0 = PhaseClock::now();
      dev_before = pt->device_eval_seconds;
    }
    if (sparse_path) {
      assemble_mna(netlist, map, result.x, x_prev_step, stamp,
                   ctx.assembler(), b);
    } else {
      assemble_mna(netlist, map, result.x, x_prev_step, stamp,
                   ctx.dense().matrix(), b);
    }
    PhaseClock::time_point t1;
    if (pt != nullptr) {
      t1 = PhaseClock::now();
      pt->assembly_seconds +=
          phase_seconds(t0, t1) - (pt->device_eval_seconds - dev_before);
    }
    if (refresh) {
      if (!ctx.factor(n)) {
        result.iterations = iter;
        return result;  // converged == false
      }
      have_factors = true;
      force_fresh = false;
      since_factor = 0;
      if (depth > 1) x_at_factor = result.x;
    }
    PhaseClock::time_point t2;
    if (pt != nullptr) {
      t2 = PhaseClock::now();
      if (refresh) pt->factor_seconds += phase_seconds(t1, t2);
    }
    ++since_factor;
    const bool stale = since_factor > 1;
    ctx.solve(b, x_new);
    if (pt != nullptr) pt->solve_seconds += phase_seconds(t2, PhaseClock::now());

    // Damping: restrict the largest node-voltage move per iteration.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < map.node_unknowns(); ++i)
      max_dv = std::max(max_dv, std::fabs(x_new[i] - result.x[i]));

    // Safeguarded reuse: a frozen-Jacobian step whose update grows
    // relative to the previous accepted iteration is moving away from
    // the fixed point, not toward it (positive-feedback stages flip
    // the step direction across a device corner). Applying it would
    // undo the fresh iterations' progress and can lock Newton into a
    // fresh-good / stale-bad limit cycle that exhausts the iteration
    // budget. Discard the step and refactor at the current iterate;
    // near convergence stale updates shrink monotonically, so the
    // reuse win in warm re-solves is untouched.
    result.iterations = iter + 1;
    if (stale && max_dv > prev_max_dv) {
      force_fresh = true;
      continue;
    }

    const double alpha =
        max_dv > options.max_step_v ? options.max_step_v / max_dv : 1.0;
    for (std::size_t i = 0; i < n; ++i)
      result.x[i] += alpha * (x_new[i] - result.x[i]);
    prev_max_dv = max_dv;
    static const bool debug = std::getenv("DOT_NEWTON_DEBUG") != nullptr;
    if (debug)
      std::fprintf(stderr,
                   "  iter=%d refresh=%d stale=%d alpha=%.3f max_dv=%.6g "
                   "drift=%.6g\n",
                   iter, refresh ? 1 : 0, stale ? 1 : 0, alpha, max_dv, drift);
    if (alpha == 1.0 && !stale && max_dv < best_max_dv) {
      best_max_dv = max_dv;
      best_x = result.x;
    }
    if (alpha == 1.0 && max_dv < options.vtol) {
      // A fixed point reached under reused (stale) factors solves the
      // frozen-Jacobian system, not necessarily the true one: confirm
      // with one fresh-factor iteration before declaring convergence.
      if (stale) {
        force_fresh = true;
        continue;
      }
      result.converged = true;
      return result;
    }
    // Damped steps mean the iterate is still moving fast; reusing a
    // Jacobian from the other side of a device corner only slows
    // convergence down, so refresh eagerly.
    if (alpha < 1.0) force_fresh = true;
  }
  // Loose acceptance for micro limit cycles (see DcOptions::loose_vtol):
  // return the best iterate seen if its Newton step was already tiny.
  if (best_max_dv < options.loose_vtol) {
    result.x = std::move(best_x);
    result.converged = true;
  }
  return result;
}

DcResult dc_operating_point(const Netlist& netlist, const MnaMap& map,
                            const DcOptions& base_options,
                            const std::vector<double>* warm_start,
                            SolverContext* solver, MosKernel* mos) {
  // Continuation aid ladder (campaign resilience): a retried fault
  // class runs under an EvalScope whose aid level escalates the stock
  // strategies. Level 0 (every non-campaign caller) is byte-identical
  // to the original behaviour.
  //
  //   level >= 1  extended gmin stepping: a 100x heavier first shunt
  //               rung and a 3x (instead of 10x) per-rung relaxation,
  //               i.e. a much longer, gentler ladder;
  //   level >= 2  finer source-stepping ramp (4x the rungs);
  //   level >= 3  heavily damped Newton from a reset start: the warm
  //               start is discarded (it may sit in the wrong basin for
  //               a pathological fault), the per-iteration voltage step
  //               is quartered and the iteration budget doubled.
  const int aid = EvalScope::aid_level();
  DcOptions options = base_options;
  double gmin_relax = 10.0;
  if (aid >= 1) {
    options.gshunt_start = base_options.gshunt_start * 100.0;
    gmin_relax = 3.0;
  }
  if (aid >= 2) options.source_steps = base_options.source_steps * 4;
  if (aid >= 3) {
    options.max_step_v = base_options.max_step_v / 4.0;
    options.max_iterations = base_options.max_iterations * 2;
  }

  const std::vector<double> no_prev(map.size(), 0.0);
  StampOptions stamp;
  stamp.mode = AnalysisMode::kDc;
  stamp.time = options.time;
  stamp.gshunt = options.gshunt;
  stamp.mos = mos;

  // 0) Newton seeded from a matching previously converged solution
  //    (skipped at aid >= 3: reset warm-start).
  if (aid < 3 && warm_start && warm_start->size() == map.size()) {
    DcResult warm = newton_solve(netlist, map, *warm_start, stamp, options,
                                 no_prev, solver);
    if (warm.converged) return warm;
  }

  // 1) Plain Newton from a flat start.
  DcResult direct =
      newton_solve(netlist, map, {}, stamp, options, no_prev, solver);
  if (direct.converged) return direct;
  int spent = direct.iterations;

  // 2) Gmin stepping: solve with a heavy shunt, then relax it.
  {
    std::vector<double> guess(map.size(), 0.0);
    bool ladder_ok = true;
    for (double g = options.gshunt_start; ladder_ok; g /= gmin_relax) {
      const bool last = g <= options.gshunt;
      StampOptions rung = stamp;
      rung.gshunt = last ? options.gshunt : g;
      DcResult step = newton_solve(netlist, map, std::move(guess), rung,
                                   options, no_prev, solver);
      spent += step.iterations;
      if (!step.converged) {
        ladder_ok = false;
        guess.assign(map.size(), 0.0);
        break;
      }
      guess = std::move(step.x);
      if (last) {
        DcResult out;
        out.x = std::move(guess);
        out.iterations = spent;
        out.converged = true;
        return out;
      }
    }
  }

  // 3) Source stepping: ramp all independent sources from ~0 to 100%.
  {
    std::vector<double> guess(map.size(), 0.0);
    bool ok = true;
    for (int s = 1; s <= options.source_steps; ++s) {
      StampOptions rung = stamp;
      rung.source_scale =
          static_cast<double>(s) / static_cast<double>(options.source_steps);
      DcResult step = newton_solve(netlist, map, std::move(guess), rung,
                                   options, no_prev, solver);
      spent += step.iterations;
      if (!step.converged) {
        ok = false;
        break;
      }
      guess = std::move(step.x);
    }
    if (ok) {
      DcResult out;
      out.x = std::move(guess);
      out.iterations = spent;
      out.converged = true;
      return out;
    }
  }

  throw util::ConvergenceError(
      "dc_operating_point: Newton, gmin stepping and source stepping all "
      "failed" +
      (aid > 0 ? " (aid level " + std::to_string(aid) + ")" : std::string()));
}

}  // namespace dot::spice

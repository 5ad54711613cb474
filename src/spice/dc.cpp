#include "spice/dc.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

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
                      SolverContext* solver, NewtonBuffers* buffers) {
  const std::size_t n = map.size();
  DcResult result;
  result.x = std::move(initial_guess);
  if (result.x.size() != n) result.x.assign(n, 0.0);

  std::optional<SolverContext> local_solver;
  SolverContext& ctx = solver != nullptr ? *solver : local_solver.emplace();

  std::optional<NewtonBuffers> local_buffers;
  NewtonBuffers& buf = buffers != nullptr ? *buffers : local_buffers.emplace();
  std::vector<double>& b = buf.b;
  std::vector<double>& x_new = buf.step;
  double best_max_dv = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Per-iteration wall-clock budget check (campaign resilience): a
    // class whose Newton iteration never settles throws TimeoutError
    // here instead of spinning through every continuation rung.
    EvalScope::check_deadline();
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
    assemble_mna(netlist, map, result.x, x_prev_step, stamp, ctx.assembler(),
                 b);
    PhaseClock::time_point t1;
    if (pt != nullptr) {
      t1 = PhaseClock::now();
      pt->assembly_seconds +=
          phase_seconds(t0, t1) - (pt->device_eval_seconds - dev_before);
    }
    if (!ctx.factor(n)) {
      result.iterations = iter;
      return result;  // converged == false
    }
    PhaseClock::time_point t2;
    if (pt != nullptr) {
      t2 = PhaseClock::now();
      pt->factor_seconds += phase_seconds(t1, t2);
    }
    ctx.solve(b, x_new);
    if (pt != nullptr)
      pt->solve_seconds += phase_seconds(t2, PhaseClock::now());

    // Damping: restrict the largest node-voltage move per iteration.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < map.node_unknowns(); ++i)
      max_dv = std::max(max_dv, std::fabs(x_new[i] - result.x[i]));
    result.iterations = iter + 1;
    const double alpha =
        max_dv > options.max_step_v ? options.max_step_v / max_dv : 1.0;
    for (std::size_t i = 0; i < n; ++i)
      result.x[i] += alpha * (x_new[i] - result.x[i]);
    if (alpha == 1.0 && max_dv < best_max_dv) {
      best_max_dv = max_dv;
      buf.best = result.x;
    }
    if (alpha == 1.0 && max_dv < options.vtol) {
      result.converged = true;
      return result;
    }
  }
  // Loose acceptance for micro limit cycles (see DcOptions::loose_vtol):
  // return the best iterate seen if its Newton step was already tiny.
  if (best_max_dv < options.loose_vtol) {
    result.x.swap(buf.best);
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

  std::optional<MosKernel> own_kernel;
  if (mos == nullptr) mos = &own_kernel.emplace(netlist, map);
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

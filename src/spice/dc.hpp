// DC operating-point solver: damped Newton-Raphson with gmin stepping
// and source stepping as continuation fallbacks.
#pragma once

#include <vector>

#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "spice/solver.hpp"

namespace dot::spice {

struct DcOptions {
  int max_iterations = 150;
  double vtol = 1e-6;        ///< Convergence on max |dV| between iterates.
  /// Fallback acceptance: piecewise device models (triode/saturation
  /// boundaries, the subthreshold kink) can trap Newton in a micro
  /// limit cycle that never reaches vtol. If the iteration budget runs
  /// out while the step size chatters below this bound, the best
  /// iterate is accepted -- a millivolt of chatter is far below any
  /// measurement band this library uses.
  double loose_vtol = 1e-3;
  double max_step_v = 0.6;   ///< Newton damping: largest node-voltage move.
  double gshunt = 1e-12;     ///< Final shunt conductance (node to ground).
  double gshunt_start = 1e-3;  ///< First rung of the gmin ladder.
  double time = 0.0;         ///< Source evaluation time.
  int source_steps = 8;      ///< Rungs for source-stepping fallback.
};

struct DcResult {
  std::vector<double> x;  ///< Converged unknown vector (see MnaMap).
  int iterations = 0;     ///< Total Newton iterations spent.
  bool converged = false;
};

/// Solves the operating point. Throws util::ConvergenceError when every
/// continuation strategy fails; on success result.converged is true.
///
/// `warm_start` (optional) is a previously converged solution of a
/// same-layout system -- typically the fault-free ("golden") operating
/// point reused across a fault campaign. When its size matches the
/// unknown vector it seeds the first Newton attempt; most faulty
/// circuits differ from the golden one by a single bridge resistor, so
/// Newton lands in a handful of iterations instead of walking the full
/// continuation ladder from a flat start.
/// `solver` (optional) carries the linear-solver workspaces and the
/// cached sparse symbolic factorization; pass the same context across
/// related solves (Newton iterations, continuation rungs, fault
/// classes with a shared node layout) to amortize analysis and
/// allocation. Without one, a private context with default options is
/// used. `mos` (optional) is the netlist's MOSFET kernel (see
/// MosKernel), whose stamp program every Newton iteration replays;
/// without one, the solve builds its own. A caller's kernel keeps its
/// program across solves; the result is the same either way.
DcResult dc_operating_point(const Netlist& netlist, const MnaMap& map,
                            const DcOptions& options = {},
                            const std::vector<double>* warm_start = nullptr,
                            SolverContext* solver = nullptr,
                            MosKernel* mos = nullptr);

/// Work buffers of newton_solve: the right-hand side, the linear
/// solve's result and the best iterate. A caller that keeps one across
/// solves (TranStepper) runs the iteration loop without allocating
/// once the buffers have grown to the system size.
struct NewtonBuffers {
  std::vector<double> b;
  std::vector<double> step;
  std::vector<double> best;
};

/// Newton loop from a given initial guess at fixed gshunt/source scale.
/// Returns converged=false instead of throwing; building block for the
/// continuation strategies and the transient engine. `stamp.mos` must
/// be set (see assemble_mna).
///
/// `buffers` (optional) lends the loop its work vectors; without them
/// it uses its own.
DcResult newton_solve(const Netlist& netlist, const MnaMap& map,
                      std::vector<double> initial_guess,
                      const StampOptions& stamp, const DcOptions& options,
                      const std::vector<double>& x_prev_step,
                      SolverContext* solver = nullptr,
                      NewtonBuffers* buffers = nullptr);

}  // namespace dot::spice

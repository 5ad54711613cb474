// Transient analysis: fixed-step backward Euler with automatic step
// halving on Newton failure. Every accepted time point stores the full
// unknown vector, so any node voltage or source branch current can be
// inspected after the run.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"

namespace dot::spice {

struct TranOptions {
  double t_stop = 1e-6;
  double dt = 1e-9;
  double dt_min = 1e-13;    ///< Give up below this step size.
  DcOptions newton;         ///< Per-step Newton settings (time is ignored).
  /// Linear-solver selection; one SolverContext is reused across all
  /// time steps, so the sparse symbolic analysis is paid once per run.
  SolverOptions solver;
  bool start_from_dc = true;  ///< Solve the t=0 operating point first.
  /// Backward Euler (default, strongly damped -- the right choice for
  /// regenerative latches) or trapezoidal (second order, for accuracy
  /// studies on smooth circuits).
  Integrator integrator = Integrator::kBackwardEuler;
  /// Collect the per-phase wall-time breakdown (TranStats::phases).
  /// Off by default: the scalar hot loop stays clock-free.
  bool collect_phase_times = false;
};

/// Aggregate solver work of one transient run (scaling diagnostics:
/// bench_bank plots unknowns vs per-Newton-solve wall time from these
/// counters).
struct TranStats {
  std::size_t unknowns = 0;           ///< MNA system size.
  std::size_t newton_iterations = 0;  ///< Across all step attempts.
  std::size_t gshunt_rescues = 0;     ///< Steps saved by the gshunt ladder.
  std::size_t factorizations = 0;     ///< Numeric factor() calls.
  std::size_t symbolic_analyses = 0;  ///< From-scratch sparse analyses.
  bool sparse = false;  ///< Sparse path active on the last factor.
  /// Wall-time breakdown by phase (device eval / assembly / factor /
  /// solve); all zero unless TranOptions::collect_phase_times was set.
  PhaseTimes phases;
};

/// Result of a transient run; indexable by node name / source name via
/// the stored netlist metadata.
class TranResult {
 public:
  TranResult(MnaMap map, std::vector<std::string> node_names);

  void append(double time, std::vector<double> state);
  /// Reserves room for `points` time points (avoids regrowth while
  /// recording).
  void reserve(std::size_t points);

  std::size_t steps() const { return times_.size(); }
  double time(std::size_t step) const { return times_[step]; }
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& state(std::size_t step) const {
    return states_[step];
  }

  /// Voltage of a named node at a stored step.
  double voltage(std::size_t step, const std::string& node) const;
  /// Branch current of a named V source at a stored step.
  double current(std::size_t step, const std::string& source) const;

  /// Linear interpolation of a node voltage at an arbitrary time.
  double voltage_at(double time, const std::string& node) const;
  /// Linear interpolation of a source branch current at a time.
  double current_at(double time, const std::string& source) const;

  const MnaMap& map() const { return map_; }

  /// Aggregate solver work of the run that produced this result.
  const TranStats& stats() const { return stats_; }
  void set_stats(const TranStats& stats) { stats_ = stats; }

 private:
  NodeId node_id(const std::string& node) const;
  std::size_t step_before(double time) const;

  MnaMap map_;
  std::vector<std::string> node_names_;
  std::vector<double> times_;
  std::vector<std::vector<double>> states_;
  TranStats stats_;
};

/// The transient kernel of one circuit, the engine of transient(): it
/// owns the MNA map, the solver context and the SoA MOSFET kernel
/// (MosKernel, with its stamp program), solves the t = 0 operating
/// point, and advances the circuit from a t = 0 state one *accepted*
/// time point per step() call (internal dt halving retries failed
/// Newton solves), recording every point into the TranResult that
/// finish() hands over. The stepper owns the Newton loop's work
/// vectors and recycles its state buffers, so an accepted step
/// allocates only the recorded state; the allocation and layer benches
/// drive it step by step.
class TranStepper {
 public:
  /// `netlist` must outlive the stepper. collect_phase_times attaches
  /// the phase sink reported in TranStats::phases.
  TranStepper(const Netlist& netlist, const TranOptions& options);
  TranStepper(const TranStepper&) = delete;
  TranStepper& operator=(const TranStepper&) = delete;

  const MnaMap& map() const { return map_; }
  /// The t = 0 operating point: dc_operating_point's full continuation
  /// ladder through this circuit's kernel and solver context.
  DcResult solve_dc();

  /// Starts integration from state `x0` at t = 0 (the post-DC
  /// operating point, or flat), recording it as the first point.
  void start(std::vector<double> x0);
  /// True once the final time point (t_stop) has been accepted.
  bool done() const { return t_ >= options_.t_stop - 1e-18; }
  /// Advances to the next accepted time point. Precondition: start()
  /// ran and !done(). Throws util::ConvergenceError when the step fails
  /// even at dt_min.
  void step();
  /// Hands over the recorded waveform with its TranStats;
  /// `dc_iterations` counts the Newton iterations spent before start().
  TranResult finish(std::size_t dc_iterations);

 private:
  /// Last-resort rescue once the step cascade has halved dt below
  /// dt_min: re-attempt a dt_min step under a gshunt continuation
  /// ladder (heavy node-to-ground shunts relaxed rung by rung, exactly
  /// the DC gmin ladder). The final rung runs at the nominal gshunt, so
  /// an accepted point solves the TRUE system -- the ladder only
  /// supplies warm starts. Returns false (leaving the state untouched)
  /// when even the ladder fails.
  bool gshunt_rescue();
  /// Records the converged point `x` at time t as the new state.
  void accept(std::vector<double> x, double t);

  const Netlist& netlist_;
  TranOptions options_;
  MnaMap map_;
  SolverContext solver_;
  PhaseTimes phases_;
  MosKernel mos_;
  StampOptions stamp_;
  std::optional<TranResult> result_;
  std::vector<double> x_;
  std::vector<double> guess_;  ///< Newton's initial guess (recycled).
  NewtonBuffers newton_buffers_;
  std::vector<double> cap_i_;
  double t_ = 0.0;
  double dt_ = 0.0;
  std::size_t newton_iterations_ = 0;
  std::size_t gshunt_rescues_ = 0;
};

/// Runs the transient simulation. Throws util::ConvergenceError when a
/// step cannot be completed even at dt_min.
TranResult transient(const Netlist& netlist, const TranOptions& options);

}  // namespace dot::spice

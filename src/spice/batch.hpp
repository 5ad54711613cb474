// Batched sibling-fault evaluation: runs many near-identical transient
// jobs (faulty variants of one macro bench) together, sharing the DC
// start-up work across the batch. Each member then integrates on the
// same transient kernel (TranStepper) as spice::transient, so its
// waveforms are bit-identical to a scalar run.
//
// What is shared across a batch: sparse-path members whose flat-start
// DC matrices are equal, pattern and values (the VIN sweep of one fault
// variant enters only the right-hand side), form a group. Its leader
// factors that matrix, running the symbolic analysis each member's own
// first Newton iteration would; the others adopt it, and one multi-RHS
// triangular solve gives every member its first Newton step. The
// threshold-pivoting analysis depends on the values it sees, so members
// with other values keep their own, and every member's arithmetic stays
// the scalar path's.
//
// Each finished member's outcome is handed to the caller's sink at once
// and its stepper released, so a batch holds one waveform at a time.
//
// Divergence and drop-out: a member whose transient step fails to
// converge even at dt_min completes with converged=false -- the same
// verdict the scalar path's ConvergenceError handling produces. A
// member that exhausts its fault class's wall-clock budget (or any
// unexpected failure) is *evicted*: the batch carries on un-poisoned
// and the campaign layer re-evaluates that class through the unchanged
// scalar attempt ladder, where the usual retry/aid/unresolved
// accounting applies.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "spice/netlist.hpp"
#include "spice/transient.hpp"

namespace dot::spice {

/// One transient run to evaluate inside a batch.
struct BatchJob {
  const Netlist* netlist = nullptr;  ///< Caller keeps it alive.
  TranOptions options;               ///< As the scalar path would use.
  /// EvalScope identity: all engine work on this job runs inside an
  /// EvalScope(scope_macro, scope_class, ...), so campaign deadlines
  /// and the test injection hook target batch members exactly like
  /// scalar evaluations.
  std::string scope_macro;
  std::size_t scope_class = 0;
  /// Shared wall-clock budget in ms for all jobs with this scope_class
  /// (clock starts at the engine's first touch of the class; 0 = none).
  double timeout_ms = 0.0;
};

/// Outcome of one batch job.
struct BatchJobOutcome {
  /// False = evicted (budget/unexpected failure): the caller must fall
  /// back to the scalar path for this job's fault class.
  bool completed = false;
  /// Meaningful when completed: false mirrors the scalar path's
  /// swallowed ConvergenceError (simulation failed, no waveforms).
  bool converged = false;
  std::optional<TranResult> result;  ///< Set when completed && converged.
  std::string error;                 ///< Diagnostic for the other cases.
};

/// Receives job `index`'s outcome as soon as that job finishes.
using BatchSink = std::function<void(std::size_t index, BatchJobOutcome)>;

/// Evaluates all jobs, handing each outcome to `sink` once, in job
/// order. The engine no longer touches a job (or its netlist) after its
/// outcome was handed over. Never throws for per-member failures (see
/// BatchJobOutcome); only programming errors (bad job descriptors)
/// throw.
void run_transient_batch(const std::vector<BatchJob>& jobs,
                         const BatchSink& sink);

/// Same, collecting one outcome per job, in order.
std::vector<BatchJobOutcome> run_transient_batch(
    const std::vector<BatchJob>& jobs);

}  // namespace dot::spice

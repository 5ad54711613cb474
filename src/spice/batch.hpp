// Batched sibling-fault evaluation: runs many near-identical transient
// jobs (faulty variants of one macro bench) together, sharing the DC
// start-up work across the batch. Each member then integrates on the
// same transient kernel (TranStepper) as spice::transient, so its
// waveforms are bit-identical to a scalar run.
//
// What is shared across a batch:
//
//  * one symbolic analysis per *pattern group*: sibling fault classes
//    on the sparse path whose DC stamp produces the same CSR pattern
//    (shorts perturb only values; opens split a node and land in their
//    own group) adopt the group leader's analysis instead of re-running
//    it;
//  * the first DC Newton iterate: members whose flat-start matrix is
//    value-identical to the leader's (the VIN sweep of one fault
//    variant enters only the right-hand side) share the leader's
//    factorization through one multi-RHS triangular solve.
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

/// Evaluates all jobs and returns one outcome per job, in order.
/// Never throws for per-member failures (see BatchJobOutcome); only
/// programming errors (bad job descriptors) throw.
std::vector<BatchJobOutcome> run_transient_batch(
    const std::vector<BatchJob>& jobs);

}  // namespace dot::spice

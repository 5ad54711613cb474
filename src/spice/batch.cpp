#include "spice/batch.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/resilience.hpp"
#include "spice/solver.hpp"
#include "util/error.hpp"

namespace dot::spice {
namespace {

using Clock = std::chrono::steady_clock;

struct Member {
  const BatchJob* job = nullptr;
  std::optional<TranStepper> run;  ///< Map, solver context, MOS kernel.
  std::vector<double> b;  ///< DC grouping-assembly RHS.
  std::vector<double> x;
  std::size_t dc_iterations = 0;
  bool share_dc = false;  ///< Eligible for the shared first solve.
  /// Solution of the flat-start system (DC Newton iteration 0), when
  /// its group's multi-RHS solve provided one.
  std::optional<std::vector<double>> first_solve;
  bool failed = false;   ///< Completed, converged=false.
  bool evicted = false;  ///< Fall back to the scalar path.
  std::string error;

  bool done() const { return failed || evicted; }
};

class BatchEngine {
 public:
  explicit BatchEngine(const std::vector<BatchJob>& jobs) : jobs_(jobs) {}

  void run(const BatchSink& sink);

 private:
  void dc_phase();
  void transient_phase(const BatchSink& sink);
  void finalize(Member& m, BatchJobOutcome& out);

  /// Runs `fn` inside the member's EvalScope with the class's remaining
  /// budget; maps TimeoutError (and unexpected failures) to eviction
  /// and ConvergenceError to a completed-but-failed member.
  template <typename Fn>
  void run_guarded(Member& m, Fn&& fn) {
    try {
      double remaining_ms = 0.0;
      if (m.job->timeout_ms > 0.0) {
        const auto [it, inserted] =
            class_start_.try_emplace(m.job->scope_class, Clock::now());
        const double elapsed_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      it->second)
                .count();
        remaining_ms = m.job->timeout_ms - elapsed_ms;
        if (remaining_ms <= 0.0)
          throw util::TimeoutError("batched evaluation: class budget spent",
                                   m.job->scope_class, m.job->scope_macro);
      }
      EvalScope scope(m.job->scope_macro, m.job->scope_class,
                      EvalBudget{remaining_ms, 0});
      fn();
    } catch (const util::TimeoutError& e) {
      m.evicted = true;
      m.error = e.what();
    } catch (const util::ConvergenceError& e) {
      m.failed = true;
      m.error = e.what();
    } catch (const std::exception& e) {
      m.evicted = true;
      m.error = e.what();
    }
  }

  const std::vector<BatchJob>& jobs_;
  std::vector<std::unique_ptr<Member>> members_;
  std::unordered_map<std::size_t, Clock::time_point> class_start_;
};

void BatchEngine::dc_phase() {
  // 1) Flat-start DC assembly per eligible member: yields the CSR
  //    pattern (group key) and the iterate-0 system.
  for (auto& m : members_) {
    if (m->done() || !m->share_dc) continue;
    run_guarded(*m, [&] {
      std::vector<double> no_prev_sized(m->x.size(), 0.0);
      assemble_mna(*m->job->netlist, m->run->map(), m->x, no_prev_sized,
                   m->run->dc_stamp(), m->run->solver().assembler(), m->b);
    });
  }

  // 2) Groups of members whose flat-start matrices are equal, pattern
  //    and values (the VIN sweep of one fault variant differs only in
  //    the RHS): the leader factors its matrix, running the symbolic
  //    analysis the scalar path's first iteration would, the others
  //    adopt that analysis, and one multi-RHS solve gives every member
  //    its iteration-0 solution. The refactor is deterministic, so
  //    equal values imply bit-equal factors.
  std::vector<std::vector<Member*>> groups;
  for (auto& m : members_) {
    if (m->done() || !m->share_dc) continue;
    const auto& assembler = m->run->solver().assembler();
    bool placed = false;
    for (auto& group : groups) {
      const auto& lead = group.front()->run->solver().assembler();
      if (lead.pattern() == assembler.pattern() &&
          lead.values() == assembler.values()) {
        group.push_back(m.get());
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({m.get()});
  }

  for (auto& group : groups) {
    Member* leader = group.front();
    SolverContext& lead = leader->run->solver();
    bool leader_factored = false;
    run_guarded(*leader, [&] {
      leader_factored = lead.factor(leader->x.size());
    });
    if (!leader_factored || !lead.sparse_active()) continue;
    const auto symbolic = lead.shared_symbolic();
    std::vector<const std::vector<double>*> rhs;
    for (Member* m : group) {
      if (m != leader) m->run->solver().adopt_symbolic(symbolic);
      rhs.push_back(&m->b);
    }
    std::vector<std::vector<double>> solutions;
    lead.solve_multi(rhs, solutions);
    for (std::size_t k = 0; k < group.size(); ++k)
      group[k]->first_solve = std::move(solutions[k]);
  }

  // 3) Every member's operating point: the scalar continuation ladder,
  //    its plain-Newton rung starting from the shared first solve.
  for (auto& m : members_) {
    if (m->done() || !m->job->options.start_from_dc) continue;
    run_guarded(*m, [&] {
      DcResult op =
          m->run->solve_dc(m->first_solve ? &*m->first_solve : nullptr);
      m->dc_iterations = static_cast<std::size_t>(op.iterations);
      m->x = std::move(op.x);
    });
  }
}

void BatchEngine::transient_phase(const BatchSink& sink) {
  // Each member runs to completion in turn, which keeps one member's
  // working set hot (round-robin over members only thrashed the
  // cache). Members that fail to converge (verdict: converged=false,
  // like the scalar path) or blow their budget (evicted) stop there.
  // A finished member's outcome goes straight to the sink and its
  // stepper is released, so the batch holds one waveform at a time,
  // as the scalar path does.
  for (std::size_t i = 0; i < members_.size(); ++i) {
    Member& m = *members_[i];
    if (!m.done()) {
      run_guarded(m, [&] {
        m.run->start(std::move(m.x));
        while (!m.run->done()) m.run->step();
      });
    }
    BatchJobOutcome outcome;
    finalize(m, outcome);
    m.run.reset();
    sink(i, std::move(outcome));
  }
}

void BatchEngine::finalize(Member& m, BatchJobOutcome& out) {
  if (m.evicted) {
    out.completed = false;
    out.error = m.error;
    return;
  }
  out.completed = true;
  if (m.failed) {
    out.converged = false;
    out.error = m.error;
    return;
  }
  out.converged = true;
  out.result = m.run->finish(m.dc_iterations);
}

void BatchEngine::run(const BatchSink& sink) {
  members_.reserve(jobs_.size());
  for (const BatchJob& job : jobs_) {
    if (job.netlist == nullptr)
      throw util::InvalidInputError("run_transient_batch: null netlist");
    auto m = std::make_unique<Member>();
    m->job = &job;
    m->run.emplace(*job.netlist, job.options);
    m->x.assign(m->run->map().size(), 0.0);
    // The shared first iterate replicates exactly one Newton iteration
    // of the scalar trajectory.
    m->share_dc = job.options.start_from_dc &&
                  m->run->solver().use_sparse(m->x.size());
    members_.push_back(std::move(m));
  }

  dc_phase();
  transient_phase(sink);
}

}  // namespace

void run_transient_batch(const std::vector<BatchJob>& jobs,
                         const BatchSink& sink) {
  BatchEngine(jobs).run(sink);
}

std::vector<BatchJobOutcome> run_transient_batch(
    const std::vector<BatchJob>& jobs) {
  std::vector<BatchJobOutcome> outcomes(jobs.size());
  run_transient_batch(jobs, [&](std::size_t i, BatchJobOutcome outcome) {
    outcomes[i] = std::move(outcome);
  });
  return outcomes;
}

}  // namespace dot::spice

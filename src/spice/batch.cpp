#include "spice/batch.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
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
  bool share_dc = false;       ///< Eligible for the shared first iterate.
  bool dc_ready = false;       ///< x holds a converged operating point.
  bool has_first_iterate = false;
  bool failed = false;   ///< Completed, converged=false.
  bool evicted = false;  ///< Fall back to the scalar path.
  std::string error;

  bool done() const { return failed || evicted; }
};

class BatchEngine {
 public:
  explicit BatchEngine(const std::vector<BatchJob>& jobs) : jobs_(jobs) {}

  std::vector<BatchJobOutcome> run();

 private:
  void dc_phase();
  void transient_phase();
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

  // 2) Pattern groups: sibling classes whose stamp pattern matches
  //    share one symbolic analysis (and, where the values match too,
  //    the iterate-0 factorization through a multi-RHS solve).
  std::vector<std::vector<Member*>> groups;
  for (auto& m : members_) {
    if (m->done() || !m->share_dc) continue;
    bool placed = false;
    for (auto& group : groups) {
      if (group.front()->run->solver().assembler().pattern() ==
          m->run->solver().assembler().pattern()) {
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
    if (leader_factored && lead.sparse_active()) {
      const auto symbolic = lead.shared_symbolic();
      std::vector<Member*> sharers;
      std::vector<const std::vector<double>*> rhs;
      for (Member* m : group) {
        if (m->done()) continue;
        if (m != leader) m->run->solver().adopt_symbolic(symbolic);
        // Value-identical iterate-0 matrices (the VIN sweep of one
        // fault variant differs only in the RHS) ride the leader's
        // factors; the refactor is deterministic, so equal values
        // imply bit-equal factors.
        if (m->run->solver().assembler().values() ==
            lead.assembler().values()) {
          sharers.push_back(m);
          rhs.push_back(&m->b);
        }
      }
      if (!sharers.empty()) {
        std::vector<std::vector<double>> solutions;
        lead.solve_multi(rhs, solutions);
        for (std::size_t k = 0; k < sharers.size(); ++k) {
          Member* m = sharers[k];
          run_guarded(*m, [&] {
            // Replicates newton_solve's damped update for iteration 0
            // from a flat start (x = 0), including the immediate
            // convergence check.
            const DcOptions& newton = m->job->options.newton;
            const std::vector<double>& x_new = solutions[k];
            double max_dv = 0.0;
            for (std::size_t i = 0; i < m->run->map().node_unknowns(); ++i)
              max_dv = std::max(max_dv, std::fabs(x_new[i] - m->x[i]));
            const double alpha =
                max_dv > newton.max_step_v ? newton.max_step_v / max_dv : 1.0;
            for (std::size_t i = 0; i < m->x.size(); ++i)
              m->x[i] += alpha * (x_new[i] - m->x[i]);
            m->dc_iterations += 1;
            m->has_first_iterate = true;
            if (alpha == 1.0 && max_dv < newton.vtol) m->dc_ready = true;
          });
        }
      }
    }
  }

  // 3) Finish every member's operating point. With a shared first
  //    iterate, Newton continues from there (identical trajectory to
  //    the scalar flat start at depth 1); otherwise, or on failure,
  //    the full scalar continuation ladder runs unchanged.
  for (auto& m : members_) {
    if (m->done() || !m->job->options.start_from_dc || m->dc_ready) continue;
    run_guarded(*m, [&] {
      if (m->has_first_iterate) {
        DcOptions dc = m->job->options.newton;
        dc.time = 0.0;
        const std::vector<double> no_prev_sized(m->x.size(), 0.0);
        DcResult r =
            newton_solve(*m->job->netlist, m->run->map(), m->x,
                         m->run->dc_stamp(), dc, no_prev_sized,
                         &m->run->solver());
        m->dc_iterations += static_cast<std::size_t>(r.iterations);
        if (r.converged) {
          m->x = std::move(r.x);
          m->dc_ready = true;
          return;
        }
      }
      DcResult op = m->run->solve_dc();
      m->dc_iterations += static_cast<std::size_t>(op.iterations);
      m->x = std::move(op.x);
      m->dc_ready = true;
    });
  }
}

void BatchEngine::transient_phase() {
  // Each member runs to completion in turn, which keeps one member's
  // working set hot (round-robin over members only thrashed the
  // cache). Members that fail to converge (verdict: converged=false,
  // like the scalar path) or blow their budget (evicted) stop there.
  for (auto& m : members_) {
    if (m->done()) continue;
    run_guarded(*m, [&] {
      m->run->start(std::move(m->x));
      while (!m->run->done()) m->run->step();
    });
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

std::vector<BatchJobOutcome> BatchEngine::run() {
  members_.reserve(jobs_.size());
  std::vector<BatchJobOutcome> outcomes(jobs_.size());
  for (const BatchJob& job : jobs_) {
    if (job.netlist == nullptr)
      throw util::InvalidInputError("run_transient_batch: null netlist");
    auto m = std::make_unique<Member>();
    m->job = &job;
    m->run.emplace(*job.netlist, job.options);
    m->x.assign(m->run->map().size(), 0.0);
    // The shared first iterate replicates exactly one classic-Newton
    // iteration, so it is only equivalent to the scalar trajectory at
    // shamanskii depth 1 (the default everywhere in the campaign).
    m->share_dc = job.options.start_from_dc &&
                  m->run->solver().use_sparse(m->x.size()) &&
                  std::max(1, job.options.solver.shamanskii_depth) == 1;
    members_.push_back(std::move(m));
  }

  dc_phase();
  transient_phase();
  for (std::size_t i = 0; i < members_.size(); ++i)
    finalize(*members_[i], outcomes[i]);
  return outcomes;
}

}  // namespace

std::vector<BatchJobOutcome> run_transient_batch(
    const std::vector<BatchJob>& jobs) {
  return BatchEngine(jobs).run();
}

}  // namespace dot::spice

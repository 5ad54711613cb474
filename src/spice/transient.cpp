#include "spice/transient.hpp"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace dot::spice {

TranResult::TranResult(MnaMap map, std::vector<std::string> node_names)
    : map_(std::move(map)), node_names_(std::move(node_names)) {}

void TranResult::append(double time, std::vector<double> state) {
  times_.push_back(time);
  states_.push_back(std::move(state));
}

void TranResult::reserve(std::size_t points) {
  times_.reserve(points);
  states_.reserve(points);
}

NodeId TranResult::node_id(const std::string& node) const {
  if (node == "0" || node == "gnd") return kGround;
  for (std::size_t i = 0; i < node_names_.size(); ++i)
    if (node_names_[i] == node) return static_cast<NodeId>(i);
  throw util::InvalidInputError("TranResult: unknown node " + node);
}

double TranResult::voltage(std::size_t step, const std::string& node) const {
  return map_.voltage(states_[step], node_id(node));
}

double TranResult::current(std::size_t step, const std::string& source) const {
  return map_.branch_current(states_[step], source);
}

std::size_t TranResult::step_before(double time) const {
  if (times_.empty())
    throw util::InvalidInputError("TranResult: empty result");
  const auto it = std::upper_bound(times_.begin(), times_.end(), time);
  if (it == times_.begin()) return 0;
  return static_cast<std::size_t>(it - times_.begin()) - 1;
}

namespace {

double interpolate(double t0, double v0, double t1, double v1, double t) {
  if (t1 <= t0) return v1;
  const double frac = std::clamp((t - t0) / (t1 - t0), 0.0, 1.0);
  return v0 + frac * (v1 - v0);
}

}  // namespace

double TranResult::voltage_at(double time, const std::string& node) const {
  const std::size_t i = step_before(time);
  if (i + 1 >= times_.size()) return voltage(times_.size() - 1, node);
  return interpolate(times_[i], voltage(i, node), times_[i + 1],
                     voltage(i + 1, node), time);
}

double TranResult::current_at(double time, const std::string& source) const {
  const std::size_t i = step_before(time);
  if (i + 1 >= times_.size()) return current(times_.size() - 1, source);
  return interpolate(times_[i], current(i, source), times_[i + 1],
                     current(i + 1, source), time);
}

TranStepper::TranStepper(const Netlist& netlist, const TranOptions& options)
    : netlist_(netlist),
      options_(options),
      map_(netlist),
      solver_(options.solver),
      mos_(netlist, map_),
      dt_(options.dt) {
  // One solver context for the whole run: the matrix pattern is fixed,
  // so every time step after the first refactors against the cached
  // symbolic analysis.
  if (options.collect_phase_times) {
    solver_.set_phase_times(&phases_);
    mos_.set_phase_times(&phases_);
  }
  stamp_.mos = &mos_;
  // Trapezoidal integration needs the capacitor currents of the previous
  // accepted point; at t = 0 (DC) they are zero.
  std::size_t cap_count = 0;
  for (const auto& device : netlist_.devices())
    cap_count += std::holds_alternative<Capacitor>(device) ? 1u : 0u;
  cap_i_.assign(cap_count, 0.0);
}

DcResult TranStepper::solve_dc() {
  DcOptions dc = options_.newton;
  dc.time = 0.0;
  return dc_operating_point(netlist_, map_, dc, nullptr, &solver_, &mos_);
}

void TranStepper::start(std::vector<double> x0) {
  std::vector<std::string> node_names;
  node_names.reserve(netlist_.node_count());
  for (std::size_t i = 0; i < netlist_.node_count(); ++i)
    node_names.push_back(netlist_.node_name(static_cast<NodeId>(i)));
  result_.emplace(map_, std::move(node_names));
  // Fixed-step point count; dt halvings may grow the record past it.
  result_->reserve(
      static_cast<std::size_t>(std::ceil(options_.t_stop / options_.dt)) + 1);
  x_ = std::move(x0);
  result_->append(0.0, x_);
}

void TranStepper::step() {
  while (true) {
    dt_ = std::min(dt_, options_.t_stop - t_);
    const double t_next = t_ + dt_;

    stamp_.mode = AnalysisMode::kTransient;
    stamp_.dt = dt_;
    stamp_.time = t_next;
    stamp_.gshunt = options_.newton.gshunt;
    stamp_.integrator = options_.integrator;
    stamp_.cap_i_prev = &cap_i_;

    guess_ = x_;
    DcResult step =
        newton_solve(netlist_, map_, std::move(guess_), stamp_,
                     options_.newton, x_, &solver_, &newton_buffers_);
    newton_iterations_ += static_cast<std::size_t>(step.iterations);
    if (!step.converged) {
      guess_ = std::move(step.x);
      dt_ /= 2.0;
      if (dt_ < options_.dt_min) {
        // Seen on column-sized perturbed netlists starting from the
        // zero state: Newton fails at every dt, because the problem is
        // the operating region, not the step size. The gshunt ladder
        // walks the iterate there; its final rung is the unmodified
        // system, so an accepted rescue point is exact.
        if (gshunt_rescue()) return;
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "transient: step failed at t = %.6e even at dt_min", t_);
        throw util::ConvergenceError(msg);
      }
      continue;
    }
    accept(std::move(step.x), t_next);
    // Recover the step size after successful steps.
    if (dt_ < options_.dt) dt_ = std::min(options_.dt, dt_ * 2.0);
    return;
  }
}

void TranStepper::accept(std::vector<double> x, double t) {
  if (options_.integrator == Integrator::kTrapezoidal)
    capacitor_currents(netlist_, map_, x, x_, stamp_, cap_i_);
  guess_ = std::move(x_);  // the old state's buffer becomes the next guess
  x_ = std::move(x);
  t_ = t;
  result_->append(t_, x_);
}

bool TranStepper::gshunt_rescue() {
  const double dt = options_.dt_min;
  stamp_.mode = AnalysisMode::kTransient;
  stamp_.dt = dt;
  stamp_.time = t_ + dt;
  stamp_.integrator = options_.integrator;
  stamp_.cap_i_prev = &cap_i_;
  guess_ = x_;
  for (double g = options_.newton.gshunt_start;; g /= 10.0) {
    const bool last = g <= options_.newton.gshunt;
    stamp_.gshunt = last ? options_.newton.gshunt : g;
    DcResult rung =
        newton_solve(netlist_, map_, std::move(guess_), stamp_,
                     options_.newton, x_, &solver_, &newton_buffers_);
    newton_iterations_ += static_cast<std::size_t>(rung.iterations);
    guess_ = std::move(rung.x);
    if (!rung.converged) return false;
    if (last) break;
  }
  accept(std::exchange(guess_, {}), t_ + dt);
  dt_ = dt;  // the normal per-step recovery doubles it back up
  ++gshunt_rescues_;
  return true;
}

TranResult TranStepper::finish(std::size_t dc_iterations) {
  TranStats stats;
  stats.unknowns = map_.size();
  stats.newton_iterations = dc_iterations + newton_iterations_;
  stats.gshunt_rescues = gshunt_rescues_;
  stats.factorizations = solver_.factorizations();
  stats.symbolic_analyses = solver_.symbolic_analyses();
  stats.sparse = solver_.sparse_active();
  stats.phases = phases_;
  result_->set_stats(stats);
  TranResult out = std::move(*result_);
  result_.reset();
  return out;
}

TranResult transient(const Netlist& netlist, const TranOptions& options) {
  if (options.dt <= 0.0 || options.t_stop <= 0.0)
    throw util::InvalidInputError("transient: dt and t_stop must be positive");

  TranStepper stepper(netlist, options);
  std::vector<double> x(stepper.map().size(), 0.0);
  std::size_t dc_iterations = 0;
  if (options.start_from_dc) {
    DcResult op = stepper.solve_dc();
    dc_iterations = static_cast<std::size_t>(op.iterations);
    x = std::move(op.x);
  }
  stepper.start(std::move(x));
  while (!stepper.done()) stepper.step();
  return stepper.finish(dc_iterations);
}

}  // namespace dot::spice

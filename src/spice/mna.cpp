#include "spice/mna.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include "spice/solver.hpp"
#include "util/error.hpp"

namespace dot::spice {

MnaMap::MnaMap(const Netlist& netlist) {
  node_unknowns_ = netlist.node_count() - 1;  // Ground is not an unknown.
  std::size_t next = node_unknowns_;
  for (const auto& device : netlist.devices()) {
    if (std::holds_alternative<VoltageSource>(device)) {
      branch_order_.push_back(next);
      branch_.emplace(device_name(device), next++);
    }
  }
  size_ = next;
}

int MnaMap::node_index(NodeId node) const {
  if (node == kGround) return -1;
  return node - 1;
}

std::size_t MnaMap::branch_index(const std::string& source_name) const {
  auto it = branch_.find(source_name);
  if (it == branch_.end())
    throw util::InvalidInputError("no branch current for source: " +
                                  source_name);
  return it->second;
}

bool MnaMap::has_branch(const std::string& source_name) const {
  return branch_.count(source_name) != 0;
}

double MnaMap::voltage(const std::vector<double>& x, NodeId node) const {
  const int i = node_index(node);
  return i < 0 ? 0.0 : x[static_cast<std::size_t>(i)];
}

double MnaMap::branch_current(const std::vector<double>& x,
                              const std::string& source_name) const {
  return x[branch_index(source_name)];
}

MosKernel::MosKernel(const Netlist& netlist, const MnaMap& map)
    : netlist_(&netlist) {
  static std::atomic<std::uint32_t> next_id{0};
  id_ = next_id.fetch_add(1);
  for (const auto& device : netlist.devices()) {
    const auto* mos = std::get_if<Mosfet>(&device);
    if (mos == nullptr) continue;
    drain_.push_back(map.node_index(mos->drain));
    gate_.push_back(map.node_index(mos->gate));
    source_.push_back(map.node_index(mos->source));
    bulk_.push_back(map.node_index(mos->bulk));
    sign_.push_back(mos->type == MosType::kNmos ? 1.0 : -1.0);
    batch_.push_device(mos->model, mos->w / mos->l);
  }
  program_.fields.assign(8 * sign_.size(), 0.0);
}

void MosKernel::evaluate(const std::vector<double>& x) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0;
  if (phase_times_ != nullptr) t0 = Clock::now();
  auto at = [&x](int i) {
    return i < 0 ? 0.0 : x[static_cast<std::size_t>(i)];
  };
  const std::size_t count = sign_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const double vs = at(source_[i]);
    batch_.vgs[i] = sign_[i] * (at(gate_[i]) - vs);
    batch_.vds[i] = sign_[i] * (at(drain_[i]) - vs);
    batch_.vbs[i] = sign_[i] * (at(bulk_[i]) - vs);
  }
  eval_mos_batch(batch_);
  double* const c = program_.fields.data();
  for (std::size_t i = 0; i < count; ++i) {
    const double gm = batch_.gm[i];
    const double gds = batch_.gds[i];
    const double gmb = batch_.gmb[i];
    const double ieq = batch_.ids[i] - gm * batch_.vgs[i] -
                       gds * batch_.vds[i] - gmb * batch_.vbs[i];
    const double fields[4] = {gm, gds, gmb, sign_[i] * ieq};
    for (std::size_t k = 0; k < 4; ++k) {
      c[8 * i + k] = fields[k];
      c[8 * i + 4 + k] = -fields[k];
    }
  }
  if (phase_times_ != nullptr)
    phase_times_->device_eval_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

// Trusted-stream tag of a kernel-attached assembly: unique per kernel
// (hence per netlist) and per analysis mode -- the DC and transient
// stamp streams of one netlist differ (capacitors stamp only in
// transient), so a mode switch or another kernel refreezes once.
std::uint32_t stream_tag(const StampOptions& options) {
  if (options.mos == nullptr) return 0;
  const std::uint32_t mode = options.mode == AnalysisMode::kDc ? 1 : 2;
  return (options.mos->id() << 2) | mode;
}

/// Matrix-entry sinks for the templated stamper: the dense target adds
/// into an n*n numeric::Matrix, the sparse one records CSR triplets;
/// both add RHS entries into b.
struct DenseTarget {
  numeric::Matrix& a;
  std::vector<double>& b;
  void add(std::size_t r, std::size_t c, double v) { a(r, c) += v; }
  void rhs(std::size_t i, double v) { b[i] += v; }
};

struct SparseTarget {
  numeric::SparseAssembler& a;
  std::vector<double>& b;
  void add(std::size_t r, std::size_t c, double v) { a.add(r, c, v); }
  void rhs(std::size_t i, double v) { b[i] += v; }
};

/// Stamp target of the StampProgram. A capture round records every add
/// as an op: a MOSFET's adds carry probe values +/-(field + 1) that
/// decode to their companion field or its negation, every other add
/// gets the next static field. A refresh round (capture == null) skips
/// the MOSFETs and rewrites only the static fields, which arrive in the
/// same stream order.
struct ProgramTarget {
  StampProgram& p;
  const numeric::SparseAssembler* capture;
  std::size_t next_static;
  bool mos = false;  ///< Stamping a MOSFET's probes.

  void add(std::size_t, std::size_t, double v) {
    op(v, p.matrix,
       capture != nullptr ? capture->slot_at(p.matrix.at.size()) : 0);
  }
  void rhs(std::size_t i, double v) {
    op(v, p.rhs, static_cast<std::int32_t>(i));
  }
  void op(double v, StampOps& ops, std::int32_t target) {
    std::int32_t field;
    if (mos) {
      field = static_cast<std::int32_t>(std::fabs(v)) - 1 + (v < 0.0 ? 4 : 0);
    } else {
      if (capture != nullptr)
        p.fields.push_back(v);
      else
        p.fields[next_static] = v;
      field = static_cast<std::int32_t>(next_static++);
    }
    if (capture == nullptr) return;
    ops.at.push_back(target);
    ops.src.push_back(field);
  }
};

template <typename Target>
class Stamper {
 public:
  Stamper(const MnaMap& map, Target& a) : map_(map), a_(a) {}

  void conductance(NodeId na, NodeId nb, double g) {
    const int i = map_.node_index(na);
    const int j = map_.node_index(nb);
    if (i >= 0) a_.add(idx(i), idx(i), g);
    if (j >= 0) a_.add(idx(j), idx(j), g);
    if (i >= 0 && j >= 0) {
      a_.add(idx(i), idx(j), -g);
      a_.add(idx(j), idx(i), -g);
    }
  }

  /// Current `amps` flowing out of node `from` into node `to` through
  /// the device (i.e. a source pushing current into `to`).
  void current(NodeId from, NodeId to, double amps) {
    const int i = map_.node_index(from);
    const int j = map_.node_index(to);
    if (i >= 0) rhs_add(idx(i), -amps);
    if (j >= 0) rhs_add(idx(j), amps);
  }

  /// Transconductance: current injected into (nd -> ns) controlled by
  /// v(ncp) - v(ncn) with gain g: i = g * (v_cp - v_cn), flowing nd->ns
  /// through the device.
  void transconductance(NodeId nd, NodeId ns, NodeId ncp, NodeId ncn,
                        double g) {
    const int d = map_.node_index(nd);
    const int s = map_.node_index(ns);
    const int cp = map_.node_index(ncp);
    const int cn = map_.node_index(ncn);
    if (d >= 0 && cp >= 0) a_.add(idx(d), idx(cp), g);
    if (d >= 0 && cn >= 0) a_.add(idx(d), idx(cn), -g);
    if (s >= 0 && cp >= 0) a_.add(idx(s), idx(cp), -g);
    if (s >= 0 && cn >= 0) a_.add(idx(s), idx(cn), g);
  }

  void voltage_source_rows(std::size_t k, NodeId pos, NodeId neg,
                           double volts) {
    const int p = map_.node_index(pos);
    const int n = map_.node_index(neg);
    if (p >= 0) {
      a_.add(idx(p), k, 1.0);
      a_.add(k, idx(p), 1.0);
    }
    if (n >= 0) {
      a_.add(idx(n), k, -1.0);
      a_.add(k, idx(n), -1.0);
    }
    rhs_add(k, volts);
  }

  void rhs_add(std::size_t i, double delta) { a_.rhs(i, delta); }

 private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

  const MnaMap& map_;
  Target& a_;
};

/// Stamps gshunt and every device. `mos_fields` holds 8 companion
/// doubles per MOSFET, gm gds gmb ieq first (see MosKernel::evaluate);
/// null evaluates each MOSFET with the scalar eval_mos.
template <typename Target>
void assemble_into(const Netlist& netlist, const MnaMap& map,
                   const std::vector<double>& x,
                   const std::vector<double>& x_prev_step,
                   const StampOptions& options, Target target,
                   const double* mos_fields) {
  Stamper<Target> stamp(map, target);

  // Node-to-ground shunts keep otherwise-floating nodes solvable and
  // implement gmin stepping.
  for (std::size_t i = 0; i < map.node_unknowns(); ++i)
    target.add(i, i, options.gshunt);

  std::size_t cap_index = 0;
  std::size_t mos_index = 0;
  std::size_t branch_seq = 0;  // branch_at occurrence counter

  for (const auto& device : netlist.devices()) {
    if constexpr (std::is_same_v<Target, ProgramTarget>) {
      target.mos = std::holds_alternative<Mosfet>(device);
      if (target.mos && target.capture == nullptr) continue;
    }
    std::visit(
        [&](const auto& d) {
          using T = std::decay_t<decltype(d)>;
          if constexpr (std::is_same_v<T, Resistor>) {
            stamp.conductance(d.a, d.b, 1.0 / d.ohms);
          } else if constexpr (std::is_same_v<T, Capacitor>) {
            if (options.mode == AnalysisMode::kTransient) {
              const double v_prev =
                  map.voltage(x_prev_step, d.a) - map.voltage(x_prev_step, d.b);
              if (options.integrator == Integrator::kTrapezoidal &&
                  options.cap_i_prev != nullptr) {
                // Trapezoidal companion: i = (2C/dt)(v - v_prev) - i_prev.
                const double geq = 2.0 * d.farads / options.dt;
                const double i_prev = (*options.cap_i_prev)[cap_index];
                stamp.conductance(d.a, d.b, geq);
                stamp.current(d.b, d.a, geq * v_prev + i_prev);
              } else {
                // Backward Euler companion: geq = C/dt, ieq carries the
                // previous-step voltage.
                const double geq = d.farads / options.dt;
                stamp.conductance(d.a, d.b, geq);
                stamp.current(d.b, d.a, geq * v_prev);
              }
            }
            ++cap_index;
          } else if constexpr (std::is_same_v<T, VoltageSource>) {
            stamp.voltage_source_rows(
                map.branch_at(branch_seq++), d.pos, d.neg,
                options.source_scale * d.spec.eval(options.time));
          } else if constexpr (std::is_same_v<T, CurrentSource>) {
            stamp.current(d.pos, d.neg,
                          options.source_scale * d.spec.eval(options.time));
          } else if constexpr (std::is_same_v<T, Mosfet>) {
            if (mos_fields != nullptr) {
              // Companion fields gm, gds, gmb, ieq of this occurrence
              // (the kernel's evaluation of the current iterate, or the
              // program capture's probes); ieq carries the polarity.
              const double* c = mos_fields + 8 * mos_index++;
              stamp.transconductance(d.drain, d.source, d.gate, d.source,
                                     c[0]);
              stamp.transconductance(d.drain, d.source, d.drain, d.source,
                                     c[1]);
              stamp.transconductance(d.drain, d.source, d.bulk, d.source,
                                     c[2]);
              stamp.current(d.drain, d.source, c[3]);
              return;
            }
            // NMOS-normalized terminal voltages around the candidate.
            const double sign = d.type == MosType::kNmos ? 1.0 : -1.0;
            const double vd = map.voltage(x, d.drain);
            const double vg = map.voltage(x, d.gate);
            const double vs = map.voltage(x, d.source);
            const double vb = map.voltage(x, d.bulk);
            const double vgs = sign * (vg - vs);
            const double vds = sign * (vd - vs);
            const double vbs = sign * (vb - vs);
            const auto op = eval_mos(d.model, d.w / d.l, vgs, vds, vbs);
            // Newton companion: ids_lin = ieq + gm*vgs + gds*vds + gmb*vbs
            // with voltages of the *new* iterate.
            const double ieq =
                op.ids - op.gm * vgs - op.gds * vds - op.gmb * vbs;
            // Map back to real node polarities: for PMOS the normalized
            // current Ids flows source->drain in real terms.
            // A transconductance g from normalized (va - vb) injecting
            // normalized current d->s equals, in real nodes, g from
            // sign*(va - vb) injecting sign*current: the sign appears
            // twice and cancels for conductance stamps, once for ieq.
            stamp.transconductance(d.drain, d.source, d.gate, d.source, op.gm);
            stamp.transconductance(d.drain, d.source, d.drain, d.source,
                                   op.gds);
            stamp.transconductance(d.drain, d.source, d.bulk, d.source,
                                   op.gmb);
            stamp.current(d.drain, d.source, sign * ieq);
          }
        },
        device);
  }
}

// The static inputs of a program's static fields: seven scalars, then
// the bytes of x_prev_step and *cap_i_prev. Returns whether `key`
// already holds them; stores them otherwise.
bool same_static_inputs(std::vector<double>& key, const StampOptions& o,
                        const std::vector<double>& x_prev_step) {
  const double scalars[] = {o.time,
                            o.dt,
                            o.gshunt,
                            o.source_scale,
                            static_cast<double>(o.mode),
                            static_cast<double>(o.integrator),
                            o.cap_i_prev != nullptr ? 1.0 : 0.0};
  const std::vector<double> none;
  const std::vector<double>& cap = o.cap_i_prev ? *o.cap_i_prev : none;
  const std::size_t ns = std::size(scalars), nx = x_prev_step.size();
  auto same = [&key](std::size_t at, const double* v, std::size_t count) {
    return count == 0 ||
           std::memcmp(key.data() + at, v, count * sizeof(double)) == 0;
  };
  if (key.size() == ns + nx + cap.size() && same(0, scalars, ns) &&
      same(ns, x_prev_step.data(), nx) && same(ns + nx, cap.data(), cap.size()))
    return true;
  key.assign(scalars, scalars + ns);
  key.insert(key.end(), x_prev_step.begin(), x_prev_step.end());
  key.insert(key.end(), cap.begin(), cap.end());
  return false;
}

/// A trusted round through the kernel's StampProgram: capture it (first
/// round of this stream tag) or refresh its static fields (new static
/// inputs) with one walk, then evaluate the MOSFETs and replay.
void replay_program(const Netlist& netlist, const MnaMap& map,
                    const std::vector<double>& x,
                    const std::vector<double>& x_prev_step,
                    const StampOptions& options, MosKernel& kernel,
                    numeric::SparseAssembler& a, std::vector<double>& b) {
  StampProgram& p = kernel.program();
  const std::size_t companions = 8 * kernel.mos_count();
  const bool capture = !p.ready || p.tag != stream_tag(options);
  const bool fresh_inputs = !same_static_inputs(p.key, options, x_prev_step);
  if (capture || fresh_inputs) {
    std::vector<double> probes;
    p.ready = false;  // A throwing walk leaves the program to recapture.
    if (capture) {
      p.matrix = {};
      p.rhs = {};
      p.fields.resize(companions);
      probes.resize(companions);
      std::iota(probes.begin(), probes.end(), 1.0);
    }
    assemble_into(netlist, map, x, x_prev_step, options,
                  ProgramTarget{p, capture ? &a : nullptr, companions},
                  probes.data());
    p.ready = true;
    p.tag = stream_tag(options);
  }
  kernel.evaluate(x);
  const double* const fields = p.fields.data();
  a.replay(p.matrix.at.data(), p.matrix.src.data(), p.matrix.at.size(),
           fields);
  for (std::size_t k = 0; k < p.rhs.at.size(); ++k)
    b[static_cast<std::size_t>(p.rhs.at[k])] += fields[p.rhs.src[k]];
}

MosKernel* checked_kernel(const Netlist& netlist, const StampOptions& options) {
  MosKernel* const kernel = options.mos;
  if (kernel != nullptr && &kernel->netlist() != &netlist)
    throw std::logic_error("assemble_mna: MOS kernel of another netlist");
  return kernel;
}

/// Companion fields for a walk: the kernel's, evaluated at `x`.
const double* walk_fields(MosKernel* kernel, const std::vector<double>& x) {
  if (kernel == nullptr) return nullptr;
  kernel->evaluate(x);
  return kernel->program().fields.data();
}

}  // namespace

void assemble_mna(const Netlist& netlist, const MnaMap& map,
                  const std::vector<double>& x,
                  const std::vector<double>& x_prev_step,
                  const StampOptions& options, numeric::Matrix& a,
                  std::vector<double>& b) {
  const std::size_t n = map.size();
  if (a.rows() != n || a.cols() != n) a = numeric::Matrix(n, n);
  a.fill(0.0);
  b.assign(n, 0.0);
  MosKernel* const kernel = checked_kernel(netlist, options);
  assemble_into(netlist, map, x, x_prev_step, options, DenseTarget{a, b},
                walk_fields(kernel, x));
}

void assemble_mna(const Netlist& netlist, const MnaMap& map,
                  const std::vector<double>& x,
                  const std::vector<double>& x_prev_step,
                  const StampOptions& options, numeric::SparseAssembler& a,
                  std::vector<double>& b) {
  const std::size_t n = map.size();
  a.begin(n, stream_tag(options));
  b.assign(n, 0.0);
  MosKernel* const kernel = checked_kernel(netlist, options);
  if (kernel != nullptr && a.fast_active())
    replay_program(netlist, map, x, x_prev_step, options, *kernel, a, b);
  else
    assemble_into(netlist, map, x, x_prev_step, options, SparseTarget{a, b},
                  walk_fields(kernel, x));
  a.finish();
}

std::vector<double> capacitor_currents(const Netlist& netlist,
                                       const MnaMap& map,
                                       const std::vector<double>& x,
                                       const std::vector<double>& x_prev,
                                       const StampOptions& options) {
  std::vector<double> currents;
  std::size_t cap_index = 0;
  for (const auto& device : netlist.devices()) {
    const auto* cap = std::get_if<Capacitor>(&device);
    if (cap == nullptr) continue;
    const double v = map.voltage(x, cap->a) - map.voltage(x, cap->b);
    const double v_prev =
        map.voltage(x_prev, cap->a) - map.voltage(x_prev, cap->b);
    double i = 0.0;
    if (options.dt > 0.0) {
      if (options.integrator == Integrator::kTrapezoidal &&
          options.cap_i_prev != nullptr) {
        i = 2.0 * cap->farads / options.dt * (v - v_prev) -
            (*options.cap_i_prev)[cap_index];
      } else {
        i = cap->farads / options.dt * (v - v_prev);
      }
    }
    currents.push_back(i);
    ++cap_index;
  }
  return currents;
}

}  // namespace dot::spice

#include "spice/mna.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "spice/solver.hpp"
#include "util/error.hpp"

namespace dot::spice {

MnaMap::MnaMap(const Netlist& netlist) {
  node_unknowns_ = netlist.node_count() - 1;  // Ground is not an unknown.
  std::size_t next = node_unknowns_;
  for (const auto& device : netlist.devices()) {
    if (std::holds_alternative<VoltageSource>(device) ||
        std::holds_alternative<Vcvs>(device) ||
        std::holds_alternative<Inductor>(device)) {
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
  companions_.resize(sign_.size());
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
  for (std::size_t i = 0; i < count; ++i) {
    const double gm = batch_.gm[i];
    const double gds = batch_.gds[i];
    const double gmb = batch_.gmb[i];
    const double ieq = batch_.ids[i] - gm * batch_.vgs[i] -
                       gds * batch_.vds[i] - gmb * batch_.vbs[i];
    companions_[i] = MosCompanion{gm, gds, gmb, sign_[i] * ieq};
  }
  if (phase_times_ != nullptr)
    phase_times_->device_eval_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

// Trusted-stream tag of a kernel-attached assembly: unique per kernel
// (hence per netlist) and per analysis mode -- the DC and transient
// stamp streams of one netlist differ (capacitors and inductors stamp
// differently), so a mode switch or another kernel refreezes once.
std::uint32_t stream_tag(const StampOptions& options) {
  if (options.mos == nullptr) return 0;
  const std::uint32_t mode = options.mode == AnalysisMode::kDc ? 1 : 2;
  return (options.mos->id() << 2) | mode;
}

/// Smooth switch conductance between r_off and r_on as a function of the
/// control voltage, using a cubic smoothstep over [v_off, v_on] in
/// log-conductance so both extremes are well-conditioned.
double switch_conductance(const Switch& sw, double vctrl) {
  const double g_on = 1.0 / sw.r_on;
  const double g_off = 1.0 / sw.r_off;
  double t = (vctrl - sw.v_off) / (sw.v_on - sw.v_off);
  t = std::clamp(t, 0.0, 1.0);
  const double smooth = t * t * (3.0 - 2.0 * t);
  return g_off * std::pow(g_on / g_off, smooth);
}

/// Matrix-entry sinks for the templated stamper: the dense target adds
/// into an n*n numeric::Matrix, the sparse one records CSR triplets.
struct DenseTarget {
  numeric::Matrix& a;
  void add(std::size_t r, std::size_t c, double v) { a(r, c) += v; }
};

struct SparseTarget {
  numeric::SparseAssembler& a;
  void add(std::size_t r, std::size_t c, double v) { a.add(r, c, v); }
};

template <typename Target>
class Stamper {
 public:
  Stamper(const MnaMap& map, Target a, std::vector<double>& b)
      : map_(map), a_(a), b_(b) {}

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

  /// Inductor branch: KCL couplings plus the row
  ///   v(a) - v(b) - l_over_dt * i = rhs
  /// (l_over_dt = 0 and rhs = 0 makes it a DC short).
  void inductor_rows(std::size_t k, NodeId na, NodeId nb,
                     double l_over_dt, double rhs) {
    const int i = map_.node_index(na);
    const int j = map_.node_index(nb);
    if (i >= 0) {
      a_.add(idx(i), k, 1.0);
      a_.add(k, idx(i), 1.0);
    }
    if (j >= 0) {
      a_.add(idx(j), k, -1.0);
      a_.add(k, idx(j), -1.0);
    }
    a_.add(k, k, -l_over_dt);
    rhs_add(k, rhs);
  }

  void vcvs_rows(std::size_t k, const Vcvs& e) {
    const int p = map_.node_index(e.p);
    const int n = map_.node_index(e.n);
    const int cp = map_.node_index(e.cp);
    const int cn = map_.node_index(e.cn);
    if (p >= 0) {
      a_.add(idx(p), k, 1.0);
      a_.add(k, idx(p), 1.0);
    }
    if (n >= 0) {
      a_.add(idx(n), k, -1.0);
      a_.add(k, idx(n), -1.0);
    }
    if (cp >= 0) a_.add(k, idx(cp), -e.gain);
    if (cn >= 0) a_.add(k, idx(cn), e.gain);
  }

  void rhs_add(std::size_t i, double delta) { b_[i] += delta; }

 private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

  const MnaMap& map_;
  Target a_;
  std::vector<double>& b_;
};

// MosStampPlan reads the companions as a flat array of 4 doubles per
// occurrence (field index = declaration order gm, gds, gmb, ieq).
static_assert(sizeof(MosCompanion) == 4 * sizeof(double),
              "MosCompanion must stay a flat struct of 4 doubles");

/// Appends one MOSFET's stamp segment to the plan by mirroring the
/// Stamper emission order of the companion path (three
/// transconductance calls then the ieq current), validating the
/// predicted matrix-add count against the assembler's actual cursor
/// advance over this device.
void append_mos_plan(MosStampPlan& plan, const numeric::SparseAssembler& a,
                     std::size_t mat0, const MnaMap& map, const Mosfet& d,
                     std::size_t mos) {
  const int dn = map.node_index(d.drain);
  const int sn = map.node_index(d.source);
  const int gn = map.node_index(d.gate);
  const int bn = map.node_index(d.bulk);
  const auto base = static_cast<std::int32_t>(4 * mos);
  const std::size_t first = plan.sign.size();
  // transconductance(drain, source, cp, cn, g) emits, guarded on
  // non-ground terminals: (d,cp)+g, (d,cn)-g, (s,cp)-g, (s,cn)+g.
  auto tc = [&](int cp, int cn, std::int32_t field) {
    if (dn >= 0 && cp >= 0) {
      plan.sign.push_back(1.0);
      plan.src.push_back(base + field);
    }
    if (dn >= 0 && cn >= 0) {
      plan.sign.push_back(-1.0);
      plan.src.push_back(base + field);
    }
    if (sn >= 0 && cp >= 0) {
      plan.sign.push_back(-1.0);
      plan.src.push_back(base + field);
    }
    if (sn >= 0 && cn >= 0) {
      plan.sign.push_back(1.0);
      plan.src.push_back(base + field);
    }
  };
  tc(gn, sn, 0);  // gm:  controlled by v(gate) - v(source).
  tc(dn, sn, 1);  // gds: controlled by v(drain) - v(source).
  tc(bn, sn, 2);  // gmb: controlled by v(bulk) - v(source).
  const std::size_t count = plan.sign.size() - first;
  if (a.cursor() - mat0 != count)
    throw std::logic_error("assemble_mna: MOS stamp-plan count mismatch");
  for (std::size_t k = 0; k < count; ++k)
    plan.slot.push_back(a.slot_at(mat0 + k));
  plan.mat_ptr.push_back(static_cast<std::int32_t>(plan.sign.size()));
  // current(drain, source, ieq): b[drain] -= ieq, b[source] += ieq.
  if (dn >= 0) {
    plan.b_node.push_back(dn);
    plan.b_sign.push_back(-1.0);
    plan.b_src.push_back(base + 3);
  }
  if (sn >= 0) {
    plan.b_node.push_back(sn);
    plan.b_sign.push_back(1.0);
    plan.b_src.push_back(base + 3);
  }
  plan.b_ptr.push_back(static_cast<std::int32_t>(plan.b_node.size()));
}

template <typename Target>
void assemble_into(const Netlist& netlist, const MnaMap& map,
                   const std::vector<double>& x,
                   const std::vector<double>& x_prev_step,
                   const StampOptions& options, Target target,
                   std::vector<double>& b) {
  constexpr bool kSparse = std::is_same_v<Target, SparseTarget>;
  Stamper<Target> stamp(map, target, b);

  MosKernel* const kernel = options.mos;
  if (kernel != nullptr) {
    if (&kernel->netlist() != &netlist)
      throw std::logic_error("assemble_mna: MOS kernel of another netlist");
    kernel->evaluate(x);
  }

  // MOS stamp-plan disposition (see MosStampPlan). Apply rounds replace
  // each MOSFET's Stamper walk with a precompiled flat loop; the first
  // trusted round after a freeze (or a stream-tag change) runs the full
  // walk once and captures the plan from the frozen slots.
  MosStampPlan* plan = nullptr;
  bool plan_apply = false;
  bool plan_capture = false;
  const double* comp_flat = nullptr;
  if constexpr (kSparse) {
    if (kernel != nullptr && target.a.fast_active()) {
      plan = &kernel->plan();
      comp_flat = reinterpret_cast<const double*>(kernel->companions().data());
      if (plan->ready && plan->tag == stream_tag(options)) {
        plan_apply = true;
      } else {
        plan_capture = true;
        plan->ready = false;
        plan->slot.clear();
        plan->sign.clear();
        plan->src.clear();
        plan->b_node.clear();
        plan->b_sign.clear();
        plan->b_src.clear();
        plan->mat_ptr.assign(1, 0);
        plan->b_ptr.assign(1, 0);
      }
    }
  }

  // Node-to-ground shunts keep otherwise-floating nodes solvable and
  // implement gmin stepping.
  for (std::size_t i = 0; i < map.node_unknowns(); ++i)
    target.add(i, i, options.gshunt);

  std::size_t cap_index = 0;
  std::size_t mos_index = 0;
  std::size_t branch_seq = 0;  // branch_at occurrence counter

  for (const auto& device : netlist.devices()) {
    std::size_t mat0 = 0;
    if constexpr (kSparse) {
      if (plan_apply && std::holds_alternative<Mosfet>(device)) {
        const std::size_t m = mos_index++;
        const auto p0 = static_cast<std::size_t>(plan->mat_ptr[m]);
        const auto p1 = static_cast<std::size_t>(plan->mat_ptr[m + 1]);
        target.a.apply_plan(plan->slot.data() + p0, plan->sign.data() + p0,
                            plan->src.data() + p0, p1 - p0, comp_flat);
        const auto q1 = static_cast<std::size_t>(plan->b_ptr[m + 1]);
        for (auto k = static_cast<std::size_t>(plan->b_ptr[m]); k < q1; ++k)
          b[static_cast<std::size_t>(plan->b_node[k])] +=
              plan->b_sign[k] * comp_flat[static_cast<std::size_t>(
                                    plan->b_src[k])];
        continue;
      }
      if (plan_capture && std::holds_alternative<Mosfet>(device))
        mat0 = target.a.cursor();
    }
    const std::size_t mos_before = mos_index;
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
          } else if constexpr (std::is_same_v<T, Vcvs>) {
            stamp.vcvs_rows(map.branch_at(branch_seq++), d);
          } else if constexpr (std::is_same_v<T, Vccs>) {
            stamp.transconductance(d.p, d.n, d.cp, d.cn, d.gm);
          } else if constexpr (std::is_same_v<T, Inductor>) {
            const std::size_t k = map.branch_at(branch_seq++);
            if (options.mode == AnalysisMode::kDc) {
              stamp.inductor_rows(k, d.a, d.b, 0.0, 0.0);
            } else {
              const double i_prev = x_prev_step[k];
              const double v_prev =
                  map.voltage(x_prev_step, d.a) - map.voltage(x_prev_step, d.b);
              if (options.integrator == Integrator::kTrapezoidal &&
                  options.cap_i_prev != nullptr) {
                // v + v_prev = (2L/dt) (i - i_prev)
                const double l2 = 2.0 * d.henries / options.dt;
                stamp.inductor_rows(k, d.a, d.b, l2,
                                    -v_prev - l2 * i_prev);
              } else {
                // Backward Euler: v = (L/dt) (i - i_prev)
                const double l1 = d.henries / options.dt;
                stamp.inductor_rows(k, d.a, d.b, l1, -l1 * i_prev);
              }
            }
          } else if constexpr (std::is_same_v<T, Diode>) {
            const double v =
                map.voltage(x, d.anode) - map.voltage(x, d.cathode);
            const auto op = eval_diode(d, v);
            stamp.conductance(d.anode, d.cathode, op.gd);
            stamp.current(d.anode, d.cathode, op.id - op.gd * v);
          } else if constexpr (std::is_same_v<T, Switch>) {
            const double vctrl =
                map.voltage(x, d.ctrl_p) - map.voltage(x, d.ctrl_n);
            stamp.conductance(d.a, d.b, switch_conductance(d, vctrl));
          } else if constexpr (std::is_same_v<T, Mosfet>) {
            if (kernel != nullptr) {
              // The SoA kernel already evaluated this occurrence for
              // the current iterate; stamp its companion directly.
              const MosCompanion& c = kernel->companions()[mos_index++];
              stamp.transconductance(d.drain, d.source, d.gate, d.source,
                                     c.gm);
              stamp.transconductance(d.drain, d.source, d.drain, d.source,
                                     c.gds);
              stamp.transconductance(d.drain, d.source, d.bulk, d.source,
                                     c.gmb);
              stamp.current(d.drain, d.source, c.ieq);
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
    if constexpr (kSparse) {
      if (plan_capture && std::holds_alternative<Mosfet>(device))
        append_mos_plan(*plan, target.a, mat0, map, std::get<Mosfet>(device),
                        mos_before);
    }
  }
  if constexpr (kSparse) {
    if (plan_capture) {
      plan->ready = true;
      plan->tag = stream_tag(options);
    }
  }
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
  assemble_into(netlist, map, x, x_prev_step, options, DenseTarget{a}, b);
}

void assemble_mna(const Netlist& netlist, const MnaMap& map,
                  const std::vector<double>& x,
                  const std::vector<double>& x_prev_step,
                  const StampOptions& options, numeric::SparseAssembler& a,
                  std::vector<double>& b) {
  const std::size_t n = map.size();
  a.begin(n, stream_tag(options));
  b.assign(n, 0.0);
  assemble_into(netlist, map, x, x_prev_step, options, SparseTarget{a}, b);
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

#include "spice/mna.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
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

double MnaMap::voltage(const std::vector<double>& x, NodeId node) const {
  const int i = node_index(node);
  return i < 0 ? 0.0 : x[static_cast<std::size_t>(i)];
}

double MnaMap::branch_current(const std::vector<double>& x,
                              const std::string& source_name) const {
  return x[branch_index(source_name)];
}

MosKernel::MosKernel(const Netlist& netlist, const MnaMap& map)
    : netlist_(&netlist), xpad_(map.node_unknowns() + 1, 0.0) {
  auto slot = [&map](NodeId node) { return map.node_index(node) + 1; };
  std::size_t count = 0;
  for (const auto& device : netlist.devices())
    count += std::holds_alternative<Mosfet>(device) ? 1u : 0u;
  for (auto* terminal : {&drain_, &gate_, &source_, &bulk_})
    terminal->reserve(count);
  sign_.reserve(count);
  batch_.reserve(count);
  for (const auto& device : netlist.devices()) {
    const auto* mos = std::get_if<Mosfet>(&device);
    if (mos == nullptr) continue;
    drain_.push_back(slot(mos->drain));
    gate_.push_back(slot(mos->gate));
    source_.push_back(slot(mos->source));
    bulk_.push_back(slot(mos->bulk));
    sign_.push_back(mos->type == MosType::kNmos ? 1.0 : -1.0);
    batch_.push_device(mos->model, mos->w / mos->l);
  }
  program_.fields.assign(8 * sign_.size(), 0.0);
}

void MosKernel::evaluate(const std::vector<double>& x) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0;
  if (phase_times_ != nullptr) t0 = Clock::now();
  std::copy_n(x.begin(), xpad_.size() - 1, xpad_.begin() + 1);
  const double* const v = xpad_.data();
  const std::size_t count = sign_.size();
  const double* __restrict sign = sign_.data();
  double* __restrict vgs = batch_.vgs.data();
  double* __restrict vds = batch_.vds.data();
  double* __restrict vbs = batch_.vbs.data();
  for (std::size_t i = 0; i < count; ++i) {
    const double vs = v[source_[i]];
    vgs[i] = sign[i] * (v[gate_[i]] - vs);
    vds[i] = sign[i] * (v[drain_[i]] - vs);
    vbs[i] = sign[i] * (v[bulk_[i]] - vs);
  }
  eval_mos_batch(batch_);
  const double* __restrict ids = batch_.ids.data();
  const double* __restrict gm = batch_.gm.data();
  const double* __restrict gds = batch_.gds.data();
  const double* __restrict gmb = batch_.gmb.data();
  double* __restrict c = program_.fields.data();
  for (std::size_t i = 0; i < count; ++i) {
    // Newton companion: ids_lin = ieq + gm*vgs + gds*vds + gmb*vbs with
    // the voltages of the new iterate; for PMOS the normalized current
    // flows source -> drain in real terms, hence the sign.
    const double ieq = sign[i] * (ids[i] - gm[i] * vgs[i] - gds[i] * vds[i] -
                                  gmb[i] * vbs[i]);
    c[8 * i + 0] = gm[i];
    c[8 * i + 1] = gds[i];
    c[8 * i + 2] = gmb[i];
    c[8 * i + 3] = ieq;
    c[8 * i + 4] = -gm[i];
    c[8 * i + 5] = -gds[i];
    c[8 * i + 6] = -gmb[i];
    c[8 * i + 7] = -ieq;
  }
  if (phase_times_ != nullptr)
    phase_times_->device_eval_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

/// Stamp target of the StampProgram capture walk: feeds every matrix
/// add to the assembler's triplet accumulation and records the field of
/// every add (a matrix op's CSR slot is the one its add lands in once
/// the pattern is frozen). A MOSFET's adds carry probe values
/// +/-(field + 1) that decode to their companion field or its
/// negation; every other add gets the next static field, holding the
/// walk's value, and -- when the walk named the quantity it stamps
/// (next_quantity) -- a recipe that recomputes it.
struct ProgramTarget {
  StampProgram& p;
  numeric::SparseAssembler& a;
  bool mos = false;            ///< Stamping a MOSFET's probes.
  std::int32_t quantity = -1;  ///< Quantity of the next static adds.
  double value = 0.0;          ///< Its value in this walk.

  void add(std::size_t r, std::size_t c, double v) {
    a.add(r, c, v);
    p.matrix.src.push_back(field(v));
  }
  void rhs(std::size_t i, double v) {
    p.rhs.at.push_back(static_cast<std::int32_t>(i));
    p.rhs.src.push_back(field(v));
  }
  std::int32_t field(double v) {
    if (mos)
      return static_cast<std::int32_t>(std::fabs(v)) - 1 + (v < 0.0 ? 4 : 0);
    const auto f = static_cast<std::int32_t>(p.fields.size());
    p.fields.push_back(v);
    if (quantity >= 0) p.recipes.push_back({f, quantity, negated(v)});
    return f;
  }
  /// Whether `v` is the negation of the quantity's value (compared by
  /// bits, so a recipe reproduces signed zeros too).
  bool negated(double v) const {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const auto q = std::bit_cast<std::uint64_t>(value);
    if (bits != q && bits != (q ^ (std::uint64_t{1} << 63)))
      throw std::logic_error("stamp capture: add is not +/- its quantity");
    return bits != q;
  }
  /// Names the quantity the next static adds stamp, with its value in
  /// this walk.
  void next_quantity(StampQuantity q, double v) {
    quantity = static_cast<std::int32_t>(p.quantities.size());
    value = v;
    p.quantities.push_back(q);
  }
  /// Marks the next static adds as constants.
  void next_constant() { quantity = -1; }
};

bool trapezoidal(const StampOptions& o) {
  return o.integrator == Integrator::kTrapezoidal && o.cap_i_prev != nullptr;
}

/// The walk's expressions for the static quantities (the program's
/// refresh calls the same functions).
double cap_conductance(const Capacitor& d, const StampOptions& o) {
  // Trapezoidal companion: i = (2C/dt)(v - v_prev) - i_prev; backward
  // Euler: geq = C/dt, ieq carries the previous-step voltage.
  return trapezoidal(o) ? 2.0 * d.farads / o.dt : d.farads / o.dt;
}

double cap_current(const Capacitor& d, std::size_t cap_index, double geq,
                   const MnaMap& map, const std::vector<double>& x_prev_step,
                   const StampOptions& o) {
  const double v_prev =
      map.voltage(x_prev_step, d.a) - map.voltage(x_prev_step, d.b);
  return trapezoidal(o) ? geq * v_prev + (*o.cap_i_prev)[cap_index]
                        : geq * v_prev;
}

double source_value(const SourceSpec& spec, const StampOptions& o) {
  return o.source_scale * spec.eval(o.time);
}

class Stamper {
 public:
  Stamper(const MnaMap& map, ProgramTarget& a) : map_(map), a_(a) {}

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

  /// The +/-1 entries of a voltage source's branch row and column
  /// (its value goes to rhs_add(k, volts)).
  void voltage_source_rows(std::size_t k, NodeId pos, NodeId neg) {
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
  }

  void rhs_add(std::size_t i, double delta) { a_.rhs(i, delta); }

 private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

  const MnaMap& map_;
  ProgramTarget& a_;
};

/// The capture walk: stamps gshunt and every device into `target`.
/// MOSFETs stamp probe values in place of their companions: gm, gds,
/// gmb and ieq of the m-th MOSFET are 8m+1 .. 8m+4 (see ProgramTarget);
/// ieq carries the polarity (see MosKernel::evaluate).
void capture_walk(const Netlist& netlist, const MnaMap& map,
                  const std::vector<double>& x_prev_step,
                  const StampOptions& options, ProgramTarget& target) {
  Stamper stamp(map, target);

  // Node-to-ground shunts keep otherwise-floating nodes solvable and
  // implement gmin stepping.
  target.next_quantity({StampQuantity::Kind::kGshunt}, options.gshunt);
  for (std::size_t i = 0; i < map.node_unknowns(); ++i)
    target.add(i, i, options.gshunt);

  std::size_t cap_index = 0;
  std::size_t mos_index = 0;
  std::size_t branch_seq = 0;  // branch_at occurrence counter

  const auto& devices = netlist.devices();
  for (std::size_t k = 0; k < devices.size(); ++k) {
    const auto device_index = static_cast<std::int32_t>(k);
    target.mos = std::holds_alternative<Mosfet>(devices[k]);
    target.next_constant();
    std::visit(
        [&](const auto& d) {
          using T = std::decay_t<decltype(d)>;
          using Kind = StampQuantity::Kind;
          if constexpr (std::is_same_v<T, Resistor>) {
            stamp.conductance(d.a, d.b, 1.0 / d.ohms);
          } else if constexpr (std::is_same_v<T, Capacitor>) {
            if (options.mode == AnalysisMode::kTransient) {
              const auto cap = static_cast<std::int32_t>(cap_index);
              const double geq = cap_conductance(d, options);
              target.next_quantity({Kind::kCapConductance, device_index, cap},
                                   geq);
              stamp.conductance(d.a, d.b, geq);
              const double amps =
                  cap_current(d, cap_index, geq, map, x_prev_step, options);
              target.next_quantity({Kind::kCapCurrent, device_index, cap},
                                   amps);
              stamp.current(d.b, d.a, amps);
            }
            ++cap_index;
          } else if constexpr (std::is_same_v<T, VoltageSource>) {
            const std::size_t branch = map.branch_at(branch_seq++);
            stamp.voltage_source_rows(branch, d.pos, d.neg);
            const double volts = source_value(d.spec, options);
            target.next_quantity({Kind::kSource, device_index}, volts);
            stamp.rhs_add(branch, volts);
          } else if constexpr (std::is_same_v<T, Mosfet>) {
            // A transconductance g from NMOS-normalized (va - vb)
            // injecting normalized current d->s equals, in real nodes,
            // g from sign*(va - vb) injecting sign*current: the sign
            // appears twice and cancels for the conductance stamps, once
            // for ieq, which the kernel folds in.
            const double probe = 8.0 * static_cast<double>(mos_index++) + 1.0;
            stamp.transconductance(d.drain, d.source, d.gate, d.source,
                                   probe);
            stamp.transconductance(d.drain, d.source, d.drain, d.source,
                                   probe + 1.0);
            stamp.transconductance(d.drain, d.source, d.bulk, d.source,
                                   probe + 2.0);
            stamp.current(d.drain, d.source, probe + 3.0);
          }
        },
        devices[k]);
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

/// Captures the program with one walk: the walk's matrix adds freeze
/// the assembler's pattern, and each matrix op targets the CSR slot
/// its add landed in.
void capture(StampProgram& p, const Netlist& netlist, const MnaMap& map,
             const std::vector<double>& x_prev_step,
             const StampOptions& options, std::size_t mos_count,
             numeric::SparseAssembler& a) {
  // Room for the walk: at most 12 matrix and 2 RHS adds per device (a
  // MOSFET's) plus one gshunt per node, two quantities per device.
  const std::size_t devices = netlist.devices().size();
  const std::size_t adds = map.node_unknowns() + 14 * devices;
  p.matrix.src.clear();
  p.matrix.src.reserve(adds);
  p.rhs.at.clear();
  p.rhs.at.reserve(2 * devices);
  p.rhs.src.clear();
  p.rhs.src.reserve(2 * devices);
  p.quantities.clear();
  p.quantities.reserve(1 + 2 * devices);
  p.recipes.clear();
  p.recipes.reserve(adds);
  p.fields.resize(8 * mos_count);
  p.fields.reserve(8 * mos_count + adds);
  ++p.walks;
  a.begin(map.size());
  ProgramTarget target{p, a};
  capture_walk(netlist, map, x_prev_step, options, target);
  a.finish();
  p.matrix.at = a.slots();
  p.values.resize(p.quantities.size());
  p.mode = options.mode;
  p.pattern = a.shared_pattern();
}

/// Recomputes every static quantity of the program for new static
/// inputs and scatters it through the recipes (constants keep their
/// captured values).
void refresh_statics(StampProgram& p, const Netlist& netlist,
                     const MnaMap& map, const std::vector<double>& x_prev_step,
                     const StampOptions& options) {
  const auto& devices = netlist.devices();
  double* const q = p.values.data();
  for (std::size_t k = 0; k < p.quantities.size(); ++k) {
    const StampQuantity& s = p.quantities[k];
    const auto at = static_cast<std::size_t>(s.device);
    switch (s.kind) {
      case StampQuantity::Kind::kGshunt:
        q[k] = options.gshunt;
        break;
      case StampQuantity::Kind::kCapConductance:
        q[k] = cap_conductance(std::get<Capacitor>(devices[at]), options);
        break;
      case StampQuantity::Kind::kCapCurrent:
        q[k] = cap_current(std::get<Capacitor>(devices[at]),
                           static_cast<std::size_t>(s.cap), q[k - 1], map,
                           x_prev_step, options);
        break;
      case StampQuantity::Kind::kSource:
        q[k] = source_value(std::get<VoltageSource>(devices[at]).spec,
                            options);
        break;
    }
  }
  double* const fields = p.fields.data();
  for (const StampRecipe& r : p.recipes)
    fields[r.field] = r.negate ? -q[r.quantity] : q[r.quantity];
}

MosKernel& checked_kernel(const Netlist& netlist, const StampOptions& options) {
  if (options.mos == nullptr)
    throw std::logic_error("assemble_mna: no MOS kernel");
  if (&options.mos->netlist() != &netlist)
    throw std::logic_error("assemble_mna: MOS kernel of another netlist");
  return *options.mos;
}

}  // namespace

void assemble_mna(const Netlist& netlist, const MnaMap& map,
                  const std::vector<double>& x,
                  const std::vector<double>& x_prev_step,
                  const StampOptions& options, numeric::SparseAssembler& a,
                  std::vector<double>& b) {
  MosKernel& kernel = checked_kernel(netlist, options);
  StampProgram& p = kernel.program();
  const bool recapture = !p.ready || p.mode != options.mode ||
                         p.pattern != a.shared_pattern();
  const bool fresh_inputs = !same_static_inputs(p.key, options, x_prev_step);
  if (recapture || fresh_inputs) {
    p.ready = false;  // A throwing round leaves the program to recapture.
    if (recapture)
      capture(p, netlist, map, x_prev_step, options, kernel.mos_count(), a);
    else
      refresh_statics(p, netlist, map, x_prev_step, options);
    p.ready = true;
  }
  kernel.evaluate(x);
  const double* const fields = p.fields.data();
  a.zero_values();
  a.replay(p.matrix.at.data(), p.matrix.src.data(), p.matrix.at.size(),
           fields);
  b.assign(map.size(), 0.0);
  for (std::size_t k = 0; k < p.rhs.at.size(); ++k)
    b[static_cast<std::size_t>(p.rhs.at[k])] += fields[p.rhs.src[k]];
}

void capacitor_currents(const Netlist& netlist, const MnaMap& map,
                        const std::vector<double>& x,
                        const std::vector<double>& x_prev,
                        const StampOptions& options,
                        std::vector<double>& currents) {
  std::size_t count = 0;
  for (const auto& device : netlist.devices())
    count += std::holds_alternative<Capacitor>(device) ? 1u : 0u;
  currents.resize(count);
  std::size_t cap_index = 0;
  for (const auto& device : netlist.devices()) {
    const auto* cap = std::get_if<Capacitor>(&device);
    if (cap == nullptr) continue;
    const double v = map.voltage(x, cap->a) - map.voltage(x, cap->b);
    const double v_prev =
        map.voltage(x_prev, cap->a) - map.voltage(x_prev, cap->b);
    double i = 0.0;
    if (options.dt > 0.0) {
      if (trapezoidal(options)) {
        i = 2.0 * cap->farads / options.dt * (v - v_prev) -
            (*options.cap_i_prev)[cap_index];
      } else {
        i = cap->farads / options.dt * (v - v_prev);
      }
    }
    currents[cap_index++] = i;
  }
}

}  // namespace dot::spice

// Modified nodal analysis: maps a netlist onto the linear(ized) system
// A*x = b, where x holds node voltages plus the branch currents of
// voltage sources.
//
// MOSFETs, the only nonlinear devices, are stamped as Newton companion
// models linearized around a candidate solution; the DC and transient
// engines iterate assemble/solve to convergence.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "numeric/sparse.hpp"
#include "spice/netlist.hpp"

namespace dot::spice {

class MnaMap;
struct PhaseTimes;

/// What the assembly treats capacitors as.
enum class AnalysisMode {
  kDc,         ///< Capacitors open (their nodes still get gshunt).
  kTransient,  ///< Capacitors become integration companions.
};

/// Time integration method for transient companions.
enum class Integrator {
  kBackwardEuler,  ///< Robust, strongly damped (first order).
  kTrapezoidal,    ///< Second order; needs the previous capacitor
                   ///< currents (supplied via StampOptions::cap_i_prev).
};

/// Ops of a StampProgram in stream order: entry at[k] (CSR slot or
/// unknown) += fields[src[k]].
struct StampOps {
  std::vector<std::int32_t> at;
  std::vector<std::int32_t> src;
};

/// A static value of the stamp stream that changes between solves:
/// recomputed from the netlist and the StampOptions with the same
/// expression the Stamper walk stamps.
struct StampQuantity {
  enum class Kind : std::uint8_t {
    kGshunt,          ///< StampOptions::gshunt.
    kCapConductance,  ///< A capacitor's companion conductance.
    kCapCurrent,      ///< Its companion current; directly follows the
                      ///< capacitor's kCapConductance quantity.
    kSource,          ///< A V source's value at the stamp time.
  };
  Kind kind = Kind::kGshunt;
  std::int32_t device = -1;  ///< Index into Netlist::devices().
  std::int32_t cap = -1;     ///< Capacitor occurrence (cap_i_prev index).
};

/// Recipe of one static field: fields[field] = +/- value of quantity.
struct StampRecipe {
  std::int32_t field = 0;
  std::int32_t quantity = 0;
  bool negate = false;
};

/// The stamp program of a MosKernel: every assembly replays it.
///
/// Every add() of an assembly lands in a fixed CSR slot (or RHS entry),
/// and its value is either one of a MOSFET's four companion doubles or
/// its negation, or a value that only changes when a new solve starts
/// (gshunt, resistors, capacitor companions, sources). The program
/// records the whole stream -- gshunt, then every device, matrix and
/// RHS -- as (slot or node, field) ops over one array
///
///   fields = [gm gds gmb ieq -gm -gds -gmb -ieq per MOSFET | statics]
///
/// so a Newton iteration is kernel.evaluate(x), zeroing the values and
/// one flat replay of the ops.
///
/// The capture walks the netlist once: its matrix adds go to the
/// assembler's triplet accumulation, which freezes the pattern (held in
/// `pattern`) and names each op's CSR slot. Next to every static field
/// the walk records where its value comes from: a constant (resistor
/// conductances, the +/-1 of a source's branch rows) keeps the captured
/// double, every other field gets a signed recipe over a StampQuantity
/// (gshunt, a capacitor's geq or companion current, a source value).
/// When the static inputs change -- mode, time, dt, gshunt,
/// source_scale, integrator and the bytes of x_prev_step and
/// *cap_i_prev, compared by value (`key`), so no caller has to
/// invalidate anything -- the quantities are recomputed with the
/// walk's own expressions and scattered through the recipes; no device
/// walk runs. Every entry receives the same doubles (a negated recipe
/// stores the exact negation the walk stamps) in the same order, so the
/// assembled system is bit-identical to a fresh capture's.
///
/// Captured on the first assembly; an analysis-mode change (DC ->
/// transient, whose stream adds the capacitors) or an assembler whose
/// frozen pattern is no longer `pattern` recaptures.
struct StampProgram {
  bool ready = false;
  AnalysisMode mode = AnalysisMode::kDc;  ///< Mode of the capture.
  /// The frozen pattern the matrix ops' slots index.
  std::shared_ptr<const numeric::CsrPattern> pattern;
  std::vector<double> fields;
  StampOps matrix;  ///< Targets are CSR value slots.
  StampOps rhs;     ///< Targets are unknowns.
  std::vector<StampQuantity> quantities;
  std::vector<double> values;  ///< Quantity values of the last refresh.
  std::vector<StampRecipe> recipes;
  /// Static inputs the static fields were computed from.
  std::vector<double> key;
  std::size_t walks = 0;  ///< Stamper walks run (one per capture).
};

/// The MOSFET stage of every assembly of one circuit: one SoA lane per
/// MOSFET occurrence (device order) and the stamp program whose field
/// array holds the companions. Every assembly gathers the terminal
/// voltages of the candidate iterate (from a copy padded with ground at
/// slot 0, so the gather has no ground branch), runs eval_mos_batch
/// over all lanes and writes the companions into the program's fields.
/// eval_mos_batch's lanes are bit-identical to the scalar eval_mos.
class MosKernel {
 public:
  MosKernel(const Netlist& netlist, const MnaMap& map);

  /// The netlist this kernel was built for (assembly checks it).
  const Netlist& netlist() const { return *netlist_; }
  std::size_t mos_count() const { return sign_.size(); }
  /// Refreshes every companion for candidate iterate `x`: fields 8m ..
  /// 8m+3 of the program become the m-th MOSFET's gm, gds, gmb (in its
  /// NMOS-normalized convention) and sign * (ids - gm*vgs - gds*vds -
  /// gmb*vbs), which stamps as-is; fields 8m+4 .. 8m+7 their negations.
  void evaluate(const std::vector<double>& x);
  StampProgram& program() { return program_; }
  /// Sink for the device-evaluation wall time (null: no clock reads).
  void set_phase_times(PhaseTimes* sink) { phase_times_ = sink; }

 private:
  const Netlist* netlist_;
  /// Terminal unknown index + 1 (0 = ground) into xpad_.
  std::vector<std::int32_t> drain_, gate_, source_, bulk_;
  std::vector<double> sign_;
  std::vector<double> xpad_;  ///< [0, node voltages of the iterate].
  DeviceBatch batch_;
  StampProgram program_;
  PhaseTimes* phase_times_ = nullptr;
};

/// Options shared by assembly-based solvers.
struct StampOptions {
  double gshunt = 1e-12;      ///< Conductance from every node to ground.
  double source_scale = 1.0;  ///< Homotopy scale for independent sources.
  double time = 0.0;          ///< Evaluation time for source waveforms.
  AnalysisMode mode = AnalysisMode::kDc;
  double dt = 0.0;            ///< Transient step size (mode == kTransient).
  Integrator integrator = Integrator::kBackwardEuler;
  /// Trapezoidal only: capacitor currents at the previous time point,
  /// ordered by capacitor occurrence in the device list.
  const std::vector<double>* cap_i_prev = nullptr;
  /// The circuit's MOSFET kernel (built for the netlist being
  /// assembled); assembly replays its stamp program. Required by
  /// assemble_mna (dc_operating_point builds one when given none).
  MosKernel* mos = nullptr;
};

/// Index map from netlist entities to unknown-vector slots. The map is
/// value-semantic so results can outlive the netlist they came from.
class MnaMap {
 public:
  MnaMap() = default;
  explicit MnaMap(const Netlist& netlist);

  std::size_t size() const { return size_; }
  std::size_t node_unknowns() const { return node_unknowns_; }

  /// Unknown index of a node voltage; -1 for ground.
  int node_index(NodeId node) const;

  /// Unknown index of the branch current of a voltage source; throws
  /// for unknown names.
  std::size_t branch_index(const std::string& source_name) const;

  /// Branch-current index of the k-th voltage source in device-list
  /// order. Assembly walks devices in that same order, so this replaces
  /// a per-stamp string hash lookup with an array read on the
  /// Newton-loop hot path.
  std::size_t branch_at(std::size_t occurrence) const {
    return branch_order_[occurrence];
  }

  /// Node voltage from a solution vector (0 for ground).
  double voltage(const std::vector<double>& x, NodeId node) const;

  /// Branch current (positive = current flowing pos -> neg inside the
  /// source, i.e. the current delivered into the external circuit at the
  /// negative terminal).
  double branch_current(const std::vector<double>& x,
                        const std::string& source_name) const;

 private:
  std::size_t size_ = 0;
  std::size_t node_unknowns_ = 0;
  std::unordered_map<std::string, std::size_t> branch_;
  std::vector<std::size_t> branch_order_;  ///< Branch slots in device order.
};

/// Assembles the Newton-linearized MNA system around candidate solution
/// x (same layout as the unknown vector) as CSR triplets into `a`, and
/// its right-hand side into `b`. For transient mode, `x_prev_step` is
/// the converged solution of the previous time point. The assembly
/// evaluates options.mos (which must be set, for this netlist) at x and
/// replays its StampProgram into the frozen pattern, capturing the
/// program first when it has none for this mode and assembler.
void assemble_mna(const Netlist& netlist, const MnaMap& map,
                  const std::vector<double>& x,
                  const std::vector<double>& x_prev_step,
                  const StampOptions& options, numeric::SparseAssembler& a,
                  std::vector<double>& b);

/// Capacitor currents at a solved time point (same order as the
/// capacitors appear in the device list), for trapezoidal state,
/// written into `currents` (resized to the capacitor count; it may be
/// *options.cap_i_prev itself).
void capacitor_currents(const Netlist& netlist, const MnaMap& map,
                        const std::vector<double>& x,
                        const std::vector<double>& x_prev,
                        const StampOptions& options,
                        std::vector<double>& currents);

}  // namespace dot::spice

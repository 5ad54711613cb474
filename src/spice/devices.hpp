// Circuit elements. Devices are plain value types held in a variant so
// that netlists copy cheaply -- fault injection works on netlist copies,
// never by mutating a shared circuit.
#pragma once

#include <cstddef>
#include <string>
#include <variant>
#include <vector>

#include "spice/source_spec.hpp"

namespace dot::spice {

/// Node handle. Node 0 is always ground.
using NodeId = int;
inline constexpr NodeId kGround = 0;

enum class MosType { kNmos, kPmos };

/// Level-1 (Shichman-Hodges) MOSFET parameters with a simple
/// exponential subthreshold extension. The subthreshold term matters for
/// the case study: the paper's flipflop draws a process-dependent
/// leakage current during the sampling phase, which is exactly what
/// makes some IVdd fault signatures undetectable before DfT.
struct MosModel {
  double vt0 = 0.7;        ///< Zero-bias threshold voltage [V] (NMOS sign).
  double kp = 100e-6;      ///< Transconductance u0*Cox [A/V^2].
  double lambda = 0.05;    ///< Channel-length modulation [1/V].
  double gamma = 0.4;      ///< Body-effect coefficient [sqrt(V)].
  double phi = 0.65;       ///< Surface potential [V].
  double subthreshold_n = 1.5;  ///< Subthreshold slope factor.
  double i_leak0 = 1e-9;   ///< Subthreshold current scale at Vgs = Vt [A].
  double tc_vt = -2e-3;    ///< Vt temperature coefficient [V/K].
  double mobility_exp = -1.5;  ///< kp ~ (T/Tnom)^mobility_exp.
};

/// Large-signal MOSFET evaluation result around an operating point.
struct MosOperatingPoint {
  double ids = 0.0;  ///< Drain current, drain->source, NMOS convention.
  double gm = 0.0;   ///< dIds/dVgs.
  double gds = 0.0;  ///< dIds/dVds.
  double gmb = 0.0;  ///< dIds/dVbs.
};

/// Evaluates the level-1 model (with subthreshold) for NMOS-normalized
/// terminal voltages. Handles drain/source symmetry internally. The
/// assembly evaluates MOSFETs only through eval_mos_batch; this is the
/// scalar reference its lanes are checked against.
MosOperatingPoint eval_mos(const MosModel& model, double w_over_l,
                           double vgs, double vds, double vbs);

/// Struct-of-arrays batch for the level-1 MOSFET model: one lane per
/// device with contiguous terminal-voltage, parameter and result
/// arrays, so the companion-model hot loops of every MNA assembly
/// (MosKernel) auto-vectorize. The drain/source
/// normalization, threshold/body-effect and swap-back passes are
/// branchless lane loops; the exp-heavy region evaluation stays scalar.
/// Lane results are bit-identical to eval_mos on the same inputs (the
/// region core is shared and the select-based passes compute the same
/// expressions the scalar branches do).
///
/// Usage: push_device() once per lane, refresh vgs/vds/vbs before each
/// eval_mos_batch() call, read ids/gm/gds/gmb after.
struct DeviceBatch {
  // Static per-lane parameters, derived by push_device.
  std::vector<double> vt0, gamma, phi, sqrt_phi, n_vt, i0, beta, lambda;
  // Inputs: NMOS-convention terminal voltages (unnormalized).
  std::vector<double> vgs, vds, vbs;
  // Outputs: MosOperatingPoint lanes.
  std::vector<double> ids, gm, gds, gmb;
  // Scratch lanes used by eval_mos_batch (normalized voltages,
  // swap flags, threshold results); sized on demand.
  std::vector<double> nvgs, nvds, nvbs, swapped, vt, dvt;

  std::size_t size() const { return vt0.size(); }
  /// Reserves every lane array, scratch included, for `lanes` lanes.
  void reserve(std::size_t lanes);
  /// Appends one lane holding the device's derived static parameters
  /// (beta = kp*W/L etc., the same products eval_mos forms per call).
  void push_device(const MosModel& model, double w_over_l);
};

/// Evaluates every lane of the batch; see DeviceBatch.
void eval_mos_batch(DeviceBatch& batch);

struct Resistor {
  std::string name;
  NodeId a = kGround;
  NodeId b = kGround;
  double ohms = 1.0;
};

struct Capacitor {
  std::string name;
  NodeId a = kGround;
  NodeId b = kGround;
  double farads = 1e-15;
};

struct VoltageSource {
  std::string name;
  NodeId pos = kGround;
  NodeId neg = kGround;
  SourceSpec spec;
};

struct Mosfet {
  std::string name;
  MosType type = MosType::kNmos;
  NodeId drain = kGround;
  NodeId gate = kGround;
  NodeId source = kGround;
  NodeId bulk = kGround;
  double w = 1e-6;
  double l = 1e-6;
  MosModel model;
};

using Device = std::variant<Resistor, Capacitor, VoltageSource, Mosfet>;

/// Name accessor shared by all alternatives.
const std::string& device_name(const Device& device);

}  // namespace dot::spice

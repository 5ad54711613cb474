// Circuit-level fault representation, following the taxonomy of the
// paper's Table 1: shorts, extra contacts, gate-oxide / junction /
// thick-oxide pinholes, opens, new devices and shorted devices.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dot::fault {

enum class FaultKind {
  kShort,             ///< Extra material bridging >= 2 nets on one layer.
  kExtraContact,      ///< Spurious contact/via joining two layers' nets.
  kGateOxidePinhole,  ///< Gate leaks to channel/source/drain.
  kJunctionPinhole,   ///< Diffusion leaks to substrate or well.
  kThickOxidePinhole, ///< Field/interlevel oxide leaks between layers.
  kOpen,              ///< Missing material splits a net.
  kNewDevice,         ///< Extra active under existing poly: parasitic MOS.
  kShortedDevice,     ///< Bridge across an existing device's channel.
};
inline constexpr int kFaultKindCount = 8;

const std::string& fault_kind_name(FaultKind kind);

/// Inverse of fault_kind_name (journal decode); throws
/// util::InvalidInputError on an unknown name.
FaultKind parse_fault_kind(const std::string& name);

/// Material of a bridging defect; selects the short resistance.
enum class BridgeMaterial {
  kMetal,
  kPoly,
  kDiffusion,
  kContact,
  kOxide,   ///< Any pinhole path.
  kNone,    ///< Opens / device faults.
};

/// Terminal reference used by open faults: which device terminals end up
/// on the disconnected side of the split net.
struct TapRef {
  std::string device;
  int terminal = 0;

  bool operator==(const TapRef&) const = default;
};

/// One extracted circuit-level fault.
struct CircuitFault {
  FaultKind kind = FaultKind::kShort;
  /// Nets involved, sorted. Shorts/extra contacts/thick-oxide: the
  /// bridged nets (2 or more). Junction pinhole / open: the single net.
  /// New device: the two bridged diffusion nets.
  std::vector<std::string> nets;
  /// Affected device for gate-oxide pinholes and shorted devices.
  std::string device;
  /// Controlling net of a parasitic new device.
  std::string gate_net;
  /// Junction pinhole: leaks to the well (VDD) instead of substrate;
  /// new device: parasitic PMOS (inside the n-well) instead of NMOS.
  bool to_vdd = false;
  BridgeMaterial material = BridgeMaterial::kNone;
  /// Open faults: taps stranded on the far side of the break.
  std::vector<TapRef> isolated_taps;

  /// Canonical key: equal keys <=> circuit-level equivalent faults.
  std::string key() const;
};

/// Equivalence class of collapsed faults (paper fig. 1, "fault
/// collapsing", done by defect::run_campaign). `count` is the class
/// magnitude -- the number of simulated defects that produced this
/// fault, which the paper uses as the likelihood of the fault.
struct FaultClass {
  CircuitFault representative;
  std::size_t count = 0;
};

}  // namespace dot::fault

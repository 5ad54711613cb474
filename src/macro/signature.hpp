// Fault signatures at the macro level (paper section 3.2, Tables 2-3).
//
// A voltage signature describes how the macro's functional behaviour
// deviates at its edge; a current signature records which quiescent
// currents leave the fault-free 3-sigma envelope.
#pragma once

#include <string>

namespace dot::macro {

/// Voltage fault signature categories for a clocked comparator-style
/// macro (paper Table 2).
enum class VoltageSignature {
  kOutputStuckAt,  ///< Output pinned to one decision regardless of input.
  kOffset,         ///< Decision threshold shifted by more than 8 mV.
  kMixed,          ///< Erratic / non-monotonic decision behaviour.
  kClockValue,     ///< Function correct but a clock line level deviates.
  kNoDeviation,    ///< Indistinguishable from the fault-free circuit.
};
inline constexpr int kVoltageSignatureCount = 5;

const std::string& voltage_signature_name(VoltageSignature signature);

/// Inverse of voltage_signature_name (journal decode); throws
/// util::InvalidInputError on an unknown name.
VoltageSignature parse_voltage_signature(const std::string& name);

/// Current fault signature flags (paper Table 3). A fault can raise
/// several flags at once (the table's percentages overlap).
struct CurrentSignature {
  bool ivdd = false;    ///< Analog supply current out of band.
  bool iddq = false;    ///< Digital (clock generator) quiescent current.
  bool iinput = false;  ///< Any input-terminal current out of band.

  bool any() const { return ivdd || iddq || iinput; }
};

}  // namespace dot::macro

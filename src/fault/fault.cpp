#include "fault/fault.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace dot::fault {

const std::string& fault_kind_name(FaultKind kind) {
  static const std::array<std::string, kFaultKindCount> names = {
      "short",          "extra contact",       "gate oxide pinhole",
      "junction pinhole", "thick oxide pinhole", "open",
      "new device",     "shorted device"};
  return names[static_cast<std::size_t>(kind)];
}

FaultKind parse_fault_kind(const std::string& name) {
  for (int i = 0; i < kFaultKindCount; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    if (fault_kind_name(kind) == name) return kind;
  }
  throw util::InvalidInputError("unknown fault kind: " + name);
}

std::string CircuitFault::key() const {
  std::string k = std::to_string(static_cast<int>(kind));
  k += '|';
  // Nets are stored sorted; join them.
  for (const auto& net : nets) {
    k += net;
    k += ',';
  }
  k += '|';
  k += device;
  k += '|';
  k += gate_net;
  k += '|';
  k += to_vdd ? '1' : '0';
  k += '|';
  k += std::to_string(static_cast<int>(material));
  k += '|';
  // Opens with different tap partitions are distinct faults.
  std::vector<std::string> tap_keys;
  tap_keys.reserve(isolated_taps.size());
  for (const auto& tap : isolated_taps)
    tap_keys.push_back(tap.device + '#' + std::to_string(tap.terminal));
  std::sort(tap_keys.begin(), tap_keys.end());
  for (const auto& tk : tap_keys) {
    k += tk;
    k += ',';
  }
  return k;
}

}  // namespace dot::fault

// The dual-ladder reference string (paper ref [11]): a 16-segment coarse
// ladder carrying the main reference current, with a 16-resistor fine
// ladder bridging every coarse segment. The 256 comparator reference
// taps sit on the fine ladders.
#pragma once

#include <vector>

#include "flashadc/dc_bench.hpp"
#include "layout/cell.hpp"
#include "macro/envelope.hpp"
#include "macro/macro_cell.hpp"
#include "macro/signature.hpp"
#include "spice/netlist.hpp"

namespace dot::flashadc {

inline constexpr int kCoarseSegments = 16;
inline constexpr int kFinePerSegment = 16;
inline constexpr double kCoarseOhms = 12.0;
inline constexpr double kFineOhms = 60.0;

/// Tap net name for comparator index i (0..255): the reference voltage
/// of comparator i.
std::string ladder_tap_net(int index);

/// Physical netlist. Pins: vrefp, vrefm (the chip reference terminals).
spice::Netlist build_ladder_netlist();

layout::CellLayout build_ladder_layout();

std::vector<std::string> ladder_pins();

macro::MacroCell build_ladder_macro();

/// DC-solves a (possibly faulty) ladder netlist with the references
/// driven, returning the 256 tap voltages and the two pin currents
/// (delivered by VREFP / VREFM).
struct LadderSolution {
  std::vector<double> taps;  // size 256
  double iref_p = 0.0;
  double iref_m = 0.0;
  bool converged = false;
};

/// The ladder's one drive state: VREFP and VREFM at the reference
/// levels.
DcBench ladder_dc_bench();

LadderSolution solve_ladder(const spice::Netlist& macro_netlist,
                            const DcContext* context = nullptr);

/// Envelope measurements: the two reference pin currents.
macro::MeasurementLayout ladder_measurement_layout();
std::vector<double> ladder_measurements(const LadderSolution& solution);

/// Voltage signature of a converged faulty ladder: its taps drive the
/// behavioral converter. Missing codes read as offset, or stuck-at
/// beyond 10 LSB of tap deviation; intact codes still read as mixed
/// when a tap moves by more than half an LSB.
macro::VoltageSignature classify_ladder(const LadderSolution& faulty,
                                        const LadderSolution& nominal);

}  // namespace dot::flashadc

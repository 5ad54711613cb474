// The dual-ladder reference string (paper ref [11]): a 16-segment coarse
// ladder carrying the main reference current, with a 16-resistor fine
// ladder bridging every coarse segment. The 256 comparator reference
// taps sit on the fine ladders.
#pragma once

#include <vector>

#include "layout/cell.hpp"
#include "macro/envelope.hpp"
#include "macro/macro_cell.hpp"
#include "macro/signature.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "spice/solver.hpp"

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

/// Fault-free solver state computed once per campaign and shared
/// (read-only) by all workers: the golden MNA index map and operating
/// point. Faulty netlists that keep the node layout (bridge-style
/// faults, the vast majority) reuse the map and warm-start Newton from
/// the golden solution instead of walking the continuation ladder.
struct LadderContext {
  std::size_t node_count = 0;  ///< node count of the driven golden bench
  spice::MnaMap map;
  std::vector<double> golden;
  /// Solver options plus the golden sparse symbolic analysis; faulty
  /// solves that keep the matrix pattern refactor against it instead of
  /// re-running the analysis.
  spice::SolverSeed solver;
};
LadderContext make_ladder_context(const spice::Netlist& macro_netlist,
                                  const spice::SolverOptions& solver = {});

LadderSolution solve_ladder(const spice::Netlist& macro_netlist,
                            const LadderContext* context = nullptr);

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

// Bias generator macro: two resistor-loaded diode branches producing
// the tail bias (vbn) and cascode bias (vbc) for all 256 comparators.
// The two output voltages are deliberately close together -- the
// property that makes shorts between the distributed bias lines nearly
// undetectable (paper section 3.4).
#pragma once

#include <vector>

#include "flashadc/dc_bench.hpp"
#include "layout/cell.hpp"
#include "macro/envelope.hpp"
#include "macro/macro_cell.hpp"
#include "macro/signature.hpp"
#include "spice/netlist.hpp"

namespace dot::flashadc {

/// Pins: vbn, vbc, vdda, 0.
spice::Netlist build_biasgen_netlist();
layout::CellLayout build_biasgen_layout();
std::vector<std::string> biasgen_pins();
macro::MacroCell build_biasgen_macro();

/// DC evaluation of a (possibly faulty) bias generator under its
/// nominal comparator-array load.
struct BiasgenSolution {
  double vbn = 0.0;
  double vbc = 0.0;
  double ivdd = 0.0;  ///< Delivered analog supply current.
  bool converged = false;
};
/// The bias generator's one drive state: VDDA on, comparator-array
/// load on both bias lines.
DcBench biasgen_dc_bench();

BiasgenSolution solve_biasgen(const spice::Netlist& macro_netlist,
                              const DcContext* context = nullptr);

/// Envelope measurements: the supply current.
macro::MeasurementLayout biasgen_measurement_layout();
std::vector<double> biasgen_measurements(const BiasgenSolution& solution);

/// Voltage signature of a converged faulty bias generator: a grossly
/// wrong bias (> 150 mV) starves or floods every comparator tail, so
/// the codes stick; a moderate shift (> 30 mV) only degrades dynamics.
macro::VoltageSignature classify_biasgen(const BiasgenSolution& faulty,
                                         const BiasgenSolution& nominal);

}  // namespace dot::flashadc

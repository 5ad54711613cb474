// Clock generator macro: a digital cell deriving the three comparator
// phases from the chip clock input through inverter delay chains and
// gating, ending in large output buffers. Its quiescent supply current
// (IDDQ) is (nearly) zero in a fault-free circuit -- which is exactly
// why so many faults are IDDQ-detectable (paper: 93.8% of clock
// generator faults, and 11% of ALL faults raise only this current).
#pragma once

#include <vector>

#include "flashadc/dc_bench.hpp"
#include "layout/cell.hpp"
#include "macro/envelope.hpp"
#include "macro/macro_cell.hpp"
#include "macro/signature.hpp"
#include "spice/netlist.hpp"

namespace dot::flashadc {

/// Pins: clk (chip clock input), clk1, clk2, clk3 (phase outputs),
/// vddd, 0.
spice::Netlist build_clockgen_netlist();
layout::CellLayout build_clockgen_layout();
std::vector<std::string> clockgen_pins();
macro::MacroCell build_clockgen_macro();

/// DC evaluation at both clock input levels (the quiescent states a
/// tester holds the chip in).
struct ClockgenSolution {
  /// Phase output voltages for clk = 0 and clk = VDDD.
  double out_low[3] = {0, 0, 0};   ///< clk1..clk3 with clk input low.
  double out_high[3] = {0, 0, 0};  ///< clk1..clk3 with clk input high.
  double iddq_low = 0.0;           ///< Quiescent supply, clk low.
  double iddq_high = 0.0;          ///< Quiescent supply, clk high.
  double iclk_low = 0.0;           ///< Clock input pin current, clk low.
  double iclk_high = 0.0;
  bool converged = false;
};
/// The clock generator's two drive states: clk held low (0) and high
/// (1), phase outputs loaded by their distribution lines.
DcBench clockgen_dc_bench();

ClockgenSolution solve_clockgen(const spice::Netlist& macro_netlist,
                                const DcContext* context = nullptr);

/// Envelope measurements: quiescent supply and clock-pin currents at
/// both clock input levels.
macro::MeasurementLayout clockgen_measurement_layout();
std::vector<double> clockgen_measurements(const ClockgenSolution& solution);

/// Voltage signature of a converged faulty clock generator: a phase
/// output on the wrong side of VDDD/2 kills the clocks (stuck-at); a
/// level off by more than 50 mV is a clock-value deviation.
macro::VoltageSignature classify_clockgen(const ClockgenSolution& faulty,
                                          const ClockgenSolution& nominal);

}  // namespace dot::flashadc

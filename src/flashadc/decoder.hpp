// Digital decoder macro: converts the comparators' thermometer code to
// binary. The transistor-level macro is a representative 4-input slice
// (edge detector rows + wired encoder), instantiated 64 times to cover
// the 256-comparator column; the full-converter behaviour lives in the
// behavioral model (behavioral.hpp).
#pragma once

#include <array>
#include <vector>

#include "flashadc/dc_bench.hpp"
#include "layout/cell.hpp"
#include "macro/envelope.hpp"
#include "macro/macro_cell.hpp"
#include "macro/signature.hpp"
#include "spice/netlist.hpp"

namespace dot::flashadc {

inline constexpr int kDecoderSliceInputs = 4;
inline constexpr int kDecoderSlices = 64;

/// Pins: t1..t4 (thermometer inputs), r0..r3 (row outputs), vddd, 0.
spice::Netlist build_decoder_netlist();
layout::CellLayout build_decoder_layout();
std::vector<std::string> decoder_pins();
macro::MacroCell build_decoder_macro();

/// DC evaluation over the five valid thermometer input vectors
/// (0000, 1000, 1100, 1110, 1111 bottom-up).
struct DecoderSolution {
  /// Row outputs (logic levels in volts) per input vector.
  std::array<std::array<double, 4>, 5> rows{};
  /// Quiescent digital supply current per input vector.
  std::array<double, 5> iddq{};
  bool converged = false;
};
/// The decoder's five drive states: state v holds the v lowest
/// thermometer inputs high and the next-slice carry low.
DcBench decoder_dc_bench();

DecoderSolution solve_decoder(const spice::Netlist& macro_netlist,
                              const DcContext* context = nullptr);

/// The fault-free logical row pattern for vector v (v inputs high):
/// row i is high iff exactly i inputs are high... see implementation.
bool decoder_row_expected(int vector, int row);

/// Envelope measurements: the quiescent supply current per input
/// vector.
macro::MeasurementLayout decoder_measurement_layout();
std::vector<double> decoder_measurements(const DecoderSolution& solution);

/// Voltage signature of a converged faulty decoder slice: any row off
/// its fault-free logic level for any input vector is stuck-at.
macro::VoltageSignature classify_decoder(const DecoderSolution& faulty);

}  // namespace dot::flashadc

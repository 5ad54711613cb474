// Comparator fault-simulation bench: wraps a (possibly faulty) comparator
// macro netlist with realistic drivers -- clock-generator output buffers
// on a digital supply, Thevenin-equivalent bias lines, a low-impedance
// analog input and a ladder-tap reference -- runs two-cycle transients,
// and extracts decisions, quiescent currents and clock levels.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "macro/envelope.hpp"
#include "macro/signature.hpp"
#include "spice/netlist.hpp"
#include "spice/transient.hpp"

namespace dot::fault {
struct CircuitFault;
}

namespace dot::flashadc {

/// Decision grid used to classify voltage behaviour: far below, just
/// below, just above, far above the reference (paper's 8 mV offset
/// boundary sits between the inner and outer points).
inline constexpr std::array<double, 4> kDecisionGrid = {-0.3, -0.009, 0.009,
                                                        0.3};

/// Result of one two-cycle transient at a single input level.
struct ComparatorRun {
  int decision = 0;  ///< +1: comparator says vin > vref; -1: below.
  /// Delivered supply/input currents at the three phase midpoints:
  /// [phase] with phase 0 = sampling, 1 = amplification, 2 = latching.
  std::array<double, 3> ivdd{};   ///< Analog supply + bias lines.
  std::array<double, 3> iddq{};   ///< Clock-driver (digital) supply.
  std::array<double, 3> iin{};    ///< Analog input pin current.
  std::array<double, 3> iref{};   ///< Reference tap current.
  /// Clock pin levels: {clk1 hi, clk1 lo, clk2 hi, clk2 lo, clk3 hi,
  /// clk3 lo} sampled at the appropriate phase midpoints.
  std::array<double, 6> clock_levels{};
  bool converged = false;
};

/// Builds the full simulation netlist around a comparator macro netlist.
/// `delta_v` is vin - vref(nominal tap at 2.5 V).
spice::Netlist instantiate_comparator_bench(const spice::Netlist& macro,
                                            double delta_v);

/// Transient settings of the two-cycle comparator bench. The run stops
/// one step past kMeasEnd: nothing later in cycle 2 is ever read.
spice::TranOptions comparator_tran_options();

/// Throws util::InvalidInputError when `result` ends before kMeasEnd,
/// the last instant the extractors read (past its last sample,
/// TranResult::voltage_at would silently return that sample).
void check_measurement_horizon(const spice::TranResult& result);

/// Extracts the run record from a finished two-cycle transient
/// (decisions, phase-midpoint currents, clock levels; converged=true).
/// Throws util::InvalidInputError when the waveform ends before
/// kMeasEnd (as do the bank and chip extractors).
ComparatorRun extract_comparator_run(const spice::TranResult& result);

/// Convenience: bench + run for a macro netlist at one input level; a
/// transient that fails to converge gives a converged=false record.
ComparatorRun simulate_comparator(const spice::Netlist& macro,
                                  double delta_v);

/// The decision-grid bench of any comparator-style macro: the flat bank
/// and chip columns observe one slice's flipflop, the single comparator
/// is the one-slice case. `instantiate` wraps a macro netlist with the
/// bench drivers, vin at `slice`'s reference + delta_v; `extract` reads
/// `slice`'s run record from a transient run with `tran`.
struct DecisionGridBench {
  std::function<spice::Netlist(const spice::Netlist&, int slice,
                               double delta_v)>
      instantiate;
  std::function<ComparatorRun(const spice::TranResult&, int slice)> extract;
  /// Slice a fault class is observed at.
  std::function<int(const fault::CircuitFault&)> observed_slice;
  /// Slice of the fault-free runs and the good-signature envelope.
  int mid_slice = 0;
  spice::TranOptions tran;
};

/// The single comparator's bench (slice 0, comparator_tran_options()).
DecisionGridBench comparator_grid_bench();

/// All four decision-grid runs observed at `slice`, in kDecisionGrid
/// order; a transient that fails to converge leaves a converged=false
/// record. `phases` (optional) accumulates the TranStats::phases of
/// every completed run (zero unless bench.tran.collect_phase_times).
std::array<ComparatorRun, 4> run_decision_grid(
    const DecisionGridBench& bench, const spice::Netlist& macro, int slice,
    spice::PhaseTimes* phases = nullptr);

/// Measurement layout for the current envelope: the 24 current values of
/// the two outer-grid runs (vin below / above the full reference range).
macro::MeasurementLayout comparator_measurement_layout();

/// Flattens the two outer runs into the envelope measurement vector.
std::vector<double> comparator_measurements(const ComparatorRun& lo,
                                            const ComparatorRun& hi);

/// Voltage-signature classification from the decision grid and clock
/// levels, against the fault-free nominal run.
macro::VoltageSignature classify_comparator(
    const std::array<ComparatorRun, 4>& faulty,
    const std::array<ComparatorRun, 4>& nominal,
    double clock_level_tolerance = 0.05);

}  // namespace dot::flashadc

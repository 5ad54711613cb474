// The full comparator bank as ONE flat netlist + merged layout: the
// circuit the paper's divide-and-conquer step decomposes into 256
// per-comparator macro campaigns. The sparse MNA solver removed the
// ~50-node simulation ceiling that forced that decomposition, so the
// bank can now be simulated whole and the decomposition's blind spots
// -- shared-node defects, bias-line bridges crossing slice boundaries,
// adjacent-tap reference shorts -- measured instead of assumed away.
//
// Structure: N comparator slices (2..64, N | 256) stacked as a column.
//  - Slice-local nets/devices carry an "s<k>_" / "S<k>_" prefix.
//  - Clock phases, bias lines, supplies and the analog input are shared
//    distribution trunks spanning the whole column, routed with the
//    same adjacency the single-comparator cell uses (vbn next to vbc in
//    the nominal design), so neighbouring-line shorts on them bridge
//    every slice at once.
//  - A reference tap string ("shared ladder taps") runs through the
//    column: slice k's reference pin is tap net ref<k>, one fine-ladder
//    resistor (kFineOhms) between consecutive taps. Adjacent-tap shorts
//    are genuine inter-slice faults no per-comparator campaign can see.
//  - Per-slice output pins s<k>_q / s<k>_qb leave the cell edge (the
//    decoder column lines).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "layout/cell.hpp"
#include "macro/equivalence.hpp"
#include "macro/macro_cell.hpp"
#include "spice/netlist.hpp"
#include "spice/solver.hpp"

namespace dot::flashadc {

struct BankOptions {
  /// Comparators in the column. Must divide kLevels (256) and lie in
  /// 2..256; build_bank_netlist throws util::InvalidInputError
  /// otherwise. The paper-scale 256-slice column is the chip macro's
  /// backbone.
  int size = 64;
  ComparatorDft dft;
  /// Linear-solver options for bank transients. The campaign's
  /// decision-grid bench takes CampaignConfig::solver instead.
  spice::SolverOptions solver;
};

/// "s<k>_" -- prefix of slice k's local net names.
std::string bank_slice_net_prefix(int slice);
/// "S<k>_" -- prefix of slice k's device names.
std::string bank_slice_device_prefix(int slice);
/// Reference tap net of slice k ("ref<k>").
std::string bank_tap_net(int slice);
/// Input-trunk net at slice k ("in<k>"): the analog input's wire
/// segment beside slice k, mirroring the tap string's per-slice RC.
std::string bank_input_net(int slice);
/// Nominal reference voltage of slice k's tap: one LSB per tap,
/// centered mid-scale (the window of the ladder the column spans).
double bank_tap_voltage(const BankOptions& options, int slice);

/// Flat netlist of the whole column. Node names double as layout net
/// names. Pins: vin, vrefp, vrefm, clk1..clk3, vbn, vbc, vdda, 0 plus
/// every slice's q/qb.
spice::Netlist build_bank_netlist(const BankOptions& options);

/// Merged layout: shared trunks span the column, slice devices follow
/// in slice order, so neighbouring slices' nets meet in the routing
/// channel (realistic adjacency for inter-slice bridge defects).
layout::CellLayout build_bank_layout(const BankOptions& options);

std::vector<std::string> bank_pins(const BankOptions& options);

/// First-class macro cell: the existing defect-sprinkle -> collapse ->
/// simulate -> signature pipeline runs on it unchanged. The ADC holds
/// kLevels / size instances of the column.
macro::MacroCell build_bank_macro(const BankOptions& options);

// ---------------------------------------------------------------------
// Decomposition mapping.

/// Slice mapper for the bank namespace, for projecting bank-level fault
/// classes onto the per-comparator macro (macro::project_fault):
///  - "s<k>_x" -> (k, "x"); "S<k>_D" -> (k, "D");
///  - "ref<k>" -> (k, "vref") / reference-string resistor "RREF<k>" ->
///    (k, "") -- tap hardware belongs to slice k but has no device
///    counterpart inside the comparator cell, so faults needing it stay
///    unmappable (the decomposition models the ladder separately);
///  - shared nets (clk*, vbn, vbc, vin, vdda, 0) -> slice -1, same name.
macro::SliceMapper bank_slice_mapper(const BankOptions& options);

/// Slice whose signature a bank fault class is observed at: the lowest
/// slice the fault touches, or the middle slice for fully-shared
/// classes (its tap sits at mid-scale, like the per-comparator bench).
int bank_observed_slice(const BankOptions& options,
                        const fault::CircuitFault& fault);

// ---------------------------------------------------------------------
// Flat-bank fault simulation (the per-comparator bench, generalized).

/// Wraps a (possibly faulty) bank macro netlist with the same realistic
/// drivers as the single-comparator bench -- shared clock buffers and
/// bias Thevenins now loaded by all N slices -- and drives vin at slice
/// `slice`'s nominal tap + delta_v.
spice::Netlist instantiate_bank_bench(const spice::Netlist& macro_netlist,
                                      const BankOptions& options, int slice,
                                      double delta_v);

/// Transient settings of the bank bench (no t=0 operating point: with
/// every clock low the sampled nodes float behind subthreshold leakage
/// and the column-sized DC solve fails for many faulted variants, so
/// the run integrates from the zero state). Stops one step past
/// kMeasEnd, like comparator_tran_options().
spice::TranOptions bank_tran_options();

/// The bank's decision-grid bench: bank_tran_options(), faults observed
/// at bank_observed_slice, fault-free runs at the middle slice.
DecisionGridBench bank_grid_bench(const BankOptions& options);

/// Extracts the run record from a finished bank transient: decisions
/// from slice `slice`'s flipflop, currents from the shared supplies
/// (whole-column measurements; converged=true). Field-compatible with
/// the single-comparator record, so its classification and envelope
/// machinery apply verbatim.
ComparatorRun extract_bank_run(const spice::TranResult& result,
                               const BankOptions& options, int slice);

}  // namespace dot::flashadc

// The paper-scale chip macro: the full converter as ONE flat netlist.
// Where the bank macro stops at the comparator column, the chip closes
// the loop the paper's figure 1 decomposes: the same column plus the
// bias generator actually driving its vbn/vbc trunks, the clock
// generator hanging on the chip clock, and one thermometer-decoder
// slice per four comparators consuming the q outputs. Every
// cross-macro interaction the divide-and-conquer methodology assumes
// away -- bias loading, clock-tree defects with analog victims,
// comparator-to-decoder bridges -- is physically present here, so the
// chip campaign produces the first coverage number with no
// decomposition assumptions at all.
//
// Naming (chip_slice_mapper and chip_observed_slice key on it):
//  - comparator slice k: nets "s<k>_*", devices "S<k>_*" (bank rules);
//  - decoder slice j:    nets "dec<j>_*", devices "DEC<j>_*";
//  - clock generator:    nets "ckg_*", devices "CKG_*";
//  - bias generator:     nets "bg_*", devices "BG_*";
//  - taps "ref<k>" / "in<k>" belong to slice k (bank rules);
//  - everything else (trunks, supplies) belongs to no slice.
//
// The clock generator is driven by the chip clock but its phase
// outputs land on dedicated capacitively-loaded nets (ckg_clk1..3)
// rather than the distribution trunks: its inverter delay chain is
// ns-scale and cannot reproduce the 40/25/20 ns phase windows the
// comparators need, so the trunks keep the bench's proven pulse
// buffers. The generator still switches every cycle under realistic
// load, so its defect surface -- the paper's 93.8 %-IDDQ story -- is
// fully exercised.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "flashadc/bank.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "layout/cell.hpp"
#include "macro/equivalence.hpp"
#include "macro/macro_cell.hpp"
#include "spice/netlist.hpp"

namespace dot::flashadc {

struct ChipOptions {
  /// Comparators on the chip. Must divide kLevels (256), lie in
  /// 4..256 and be a multiple of kDecoderSliceInputs (4) so the
  /// thermometer decoder tiles evenly; build_chip_netlist throws
  /// util::InvalidInputError otherwise. 256 is the paper's converter.
  int slices = 256;
  ComparatorDft dft;
};

/// The comparator-column options embedded in the chip.
BankOptions chip_bank_options(const ChipOptions& options);

/// Number of 4-input decoder slices (slices / kDecoderSliceInputs).
int chip_decoder_slices(const ChipOptions& options);

/// Flat netlist of the whole converter. Node names double as layout
/// net names; see the header comment for the block-naming rules.
spice::Netlist build_chip_netlist(const ChipOptions& options);

/// Merged layout: the bank's trunk/tap ordering, with the support
/// macros' nets following in first-use order.
layout::CellLayout build_chip_layout(const ChipOptions& options);

std::vector<std::string> chip_pins(const ChipOptions& options);

/// First-class macro cell (instance_count 1: the chip IS the chip).
macro::MacroCell build_chip_macro(const ChipOptions& options);

// ---------------------------------------------------------------------
// Decomposition mapping.

/// Slice mapper for the chip namespace: comparator-column hardware
/// projects exactly like the bank's (s<k>_ nets, taps, input trunk);
/// decoder / clockgen / biasgen hardware and the digital nets have no
/// single-comparator counterpart, so their classes stay unmappable --
/// they are precisely the weight the per-comparator decomposition
/// never sees.
macro::SliceMapper chip_slice_mapper(const ChipOptions& options);

/// Slice whose flipflop a chip fault class is observed at: the lowest
/// comparator slice the fault touches, or the middle slice for shared
/// / support-macro classes.
int chip_observed_slice(const ChipOptions& options,
                        const fault::CircuitFault& fault);

// ---------------------------------------------------------------------
// Chip fault simulation (the bank bench minus the bias Thevenins --
// the on-chip generator drives those trunks -- plus the chip clock).

spice::Netlist instantiate_chip_bench(const spice::Netlist& macro_netlist,
                                      const ChipOptions& options, int slice,
                                      double delta_v);

/// The chip's decision-grid bench: chip_tran_options(), faults observed
/// at chip_observed_slice, fault-free runs at the middle slice.
DecisionGridBench chip_grid_bench(const ChipOptions& options);

/// Identical to bank_tran_options(): same window (to one step past
/// kMeasEnd), same zero-state start (the chip DC has the same
/// floating-node problem).
spice::TranOptions chip_tran_options();

/// Run record: decisions from slice `slice`'s flipflop; ivdd is the
/// analog supply alone (the bias generator sits behind it), iddq the
/// digital supply (now including decoder + clockgen quiescent paths).
ComparatorRun extract_chip_run(const spice::TranResult& result,
                               const ChipOptions& options, int slice);

}  // namespace dot::flashadc

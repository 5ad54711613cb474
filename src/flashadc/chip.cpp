#include "flashadc/chip.hpp"

#include <algorithm>

#include "flashadc/biasgen.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "flashadc/tech.hpp"
#include "layout/synth.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace dot::flashadc {

using spice::MosType;
using spice::Netlist;
using spice::PulseParams;
using spice::SourceSpec;

namespace {

void check_options(const ChipOptions& options) {
  if (options.slices < kDecoderSliceInputs || options.slices > kLevels ||
      kLevels % options.slices != 0 ||
      options.slices % kDecoderSliceInputs != 0)
    throw util::InvalidInputError(
        "chip: slices must lie in " + std::to_string(kDecoderSliceInputs) +
        ".." + std::to_string(kLevels) + ", divide " +
        std::to_string(kLevels) + " and be a multiple of " +
        std::to_string(kDecoderSliceInputs) + ", got " +
        std::to_string(options.slices));
}

std::string dec_prefix(int j) { return "dec" + std::to_string(j) + "_"; }

}  // namespace

BankOptions chip_bank_options(const ChipOptions& options) {
  BankOptions bank;
  bank.size = options.slices;
  bank.dft = options.dft;
  return bank;
}

int chip_decoder_slices(const ChipOptions& options) {
  check_options(options);
  return options.slices / kDecoderSliceInputs;
}

Netlist build_chip_netlist(const ChipOptions& options) {
  check_options(options);
  // Backbone: the comparator column with its tap string and input
  // trunk, verbatim (same names, so every bank-proven fault model and
  // the slice mapper apply unchanged).
  Netlist n = build_bank_netlist(chip_bank_options(options));

  // Bias generator, actually driving the vbn/vbc trunks it was always
  // meant to drive (the bank bench replaces it with Thevenin sources).
  n.append_renamed(build_biasgen_netlist(), "BG_",
                   [](const std::string& net) -> std::string {
                     if (net == "vbn" || net == "vbc" || net == "vdda" ||
                         net == "0")
                       return net;
                     return "bg_" + net;
                   });

  // Clock generator on the chip clock. Its phase outputs land on
  // dedicated loaded nets ckg_clk1..3 (NOT the distribution trunks;
  // see the header comment): the load caps stand in for the column's
  // worth of switch gates, so the output buffers switch realistic
  // charge every cycle and the whole IDDQ-rich defect surface is live.
  n.append_renamed(build_clockgen_netlist(), "CKG_",
                   [](const std::string& net) -> std::string {
                     if (net == "clk" || net == "vddd" || net == "0")
                       return net;
                     return "ckg_" + net;
                   });
  for (int k = 1; k <= 3; ++k)
    n.add_capacitor("CCKG" + std::to_string(k),
                    "ckg_clk" + std::to_string(k), "0", 5e-12);

  // Thermometer decoder: one 4-input slice per four comparators, its
  // t inputs wired straight to the comparators' q outputs (the
  // cross-macro column lines the decomposition models as ideal pins).
  const Netlist decoder = build_decoder_netlist();
  for (int j = 0; j < chip_decoder_slices(options); ++j) {
    const std::string prefix = dec_prefix(j);
    auto map_net = [&](const std::string& net) -> std::string {
      for (int i = 1; i <= kDecoderSliceInputs; ++i)
        if (net == "t" + std::to_string(i))
          return bank_slice_net_prefix(kDecoderSliceInputs * j + i - 1) + "q";
      if (net == "vddd" || net == "0") return net;
      return prefix + net;  // r0..r3 -> dec<j>_r0..3, internals alike
    };
    n.append_renamed(decoder, "DEC" + std::to_string(j) + "_", map_net);
  }
  return n;
}

std::vector<std::string> chip_pins(const ChipOptions& options) {
  check_options(options);
  std::vector<std::string> pins = {"vin",  "vrefp", "vrefm", "clk",
                                   "clk1", "clk2",  "clk3",  "vbn",
                                   "vbc",  "vdda",  "vddd",  "0"};
  for (int j = 0; j < chip_decoder_slices(options); ++j)
    for (int r = 0; r < 4; ++r)
      pins.push_back(dec_prefix(j) + "r" + std::to_string(r));
  return pins;
}

layout::CellLayout build_chip_layout(const ChipOptions& options) {
  check_options(options);
  layout::SynthOptions opt;
  opt.vdd_net = "vdda";
  opt.pins = chip_pins(options);
  // Same trunk adjacency story as the bank (the DfT bias-separation
  // knob keeps working at chip scale); support-macro nets follow in
  // first-use order behind the column's tap/input interleave.
  if (options.dft.separated_bias_lines) {
    opt.track_order = {"vbn", "clk1", "clk2", "vbc", "clk3", "vin"};
  } else {
    opt.track_order = {"vbn", "vbc", "clk1", "clk2", "clk3", "vin"};
  }
  for (int k = 0; k < options.slices; ++k) {
    opt.track_order.push_back(bank_tap_net(k));
    opt.track_order.push_back(bank_input_net(k));
  }
  return layout::synthesize_layout(build_chip_netlist(options), "chip", opt);
}

macro::MacroCell build_chip_macro(const ChipOptions& options) {
  check_options(options);
  return macro::MacroCell("chip", build_chip_netlist(options),
                          build_chip_layout(options), chip_pins(options), 1);
}

// ---------------------------------------------------------------------
// Decomposition mapping.

macro::SliceMapper chip_slice_mapper(const ChipOptions& options) {
  // The bank mapper already returns nullopt for every name outside the
  // comparator column's namespace -- dec<j>_*, ckg_*, bg_*, vddd, clk,
  // DEC/CKG/BG devices all fail its s/ref/in/S/RREF/RIN parses -- so
  // it IS the chip mapper: column hardware projects, support-macro
  // hardware stays unmappable.
  return bank_slice_mapper(chip_bank_options(options));
}

int chip_observed_slice(const ChipOptions& options,
                        const fault::CircuitFault& fault) {
  const auto projected =
      macro::project_fault(fault, chip_slice_mapper(options));
  if (projected.slice >= 0) return projected.slice;
  return options.slices / 2;
}

// ---------------------------------------------------------------------
// Chip fault simulation.

Netlist instantiate_chip_bench(const Netlist& macro_netlist,
                               const ChipOptions& options, int slice,
                               double delta_v) {
  check_options(options);
  if (slice < 0 || slice >= options.slices)
    throw util::InvalidInputError("chip bench: slice out of range");
  const BankOptions bank = chip_bank_options(options);
  Netlist n = macro_netlist;
  const auto nm = nmos_model();
  const auto pm = pmos_model();
  const double L = 1e-6;

  // Supplies.
  n.add_vsource("VDDA", "vdda", "0", SourceSpec::dc(kVdda));
  n.add_vsource("VDDD", "vddd", "0", SourceSpec::dc(kVddd));

  // Analog input at the observed slice's decision point.
  n.add_vsource("VIN", "vin", "0",
                SourceSpec::dc(bank_tap_voltage(bank, slice) + delta_v));

  // Reference window (see instantiate_bank_bench).
  n.add_vsource("VREFP", "vrefp", "0",
                SourceSpec::dc(bank_tap_voltage(bank, options.slices - 1) +
                               lsb()));
  n.add_vsource("VREFM", "vrefm", "0",
                SourceSpec::dc(bank_tap_voltage(bank, 0) - lsb()));

  // NO bias Thevenins: the on-chip generator owns vbn/vbc now.

  // Chip clock into the clock generator: one full-swing pulse per
  // cycle spanning the sample window, behind a short interconnect.
  {
    PulseParams p;
    p.initial = 0.0;
    p.pulsed = kVddd;
    p.delay = kSampleStart;
    p.rise = kClockEdge;
    p.fall = kClockEdge;
    p.width = (kSampleEnd - kSampleStart) - kClockEdge;
    p.period = kCyclePeriod;
    n.add_vsource("VCLK", "clkin", "0", SourceSpec::pulse(p));
    n.add_resistor("RCLKIN", "clkin", "clk", 100.0);
  }

  // Phase trunk drivers, exactly the bank bench's (the generator's
  // ns-scale delay chain cannot make the 40/25/20 ns windows; its
  // outputs switch their own loads on ckg_clk1..3 instead).
  const double drive = static_cast<double>(options.slices);
  struct Phase {
    const char* name;
    double start, end;
  };
  const Phase phases[] = {{"clk1", kSampleStart, kSampleEnd},
                          {"clk2", kAmpStart, kAmpEnd},
                          {"clk3", kLatchStart, kLatchEnd}};
  int k = 0;
  for (const auto& ph : phases) {
    ++k;
    PulseParams p;
    p.initial = kVddd;  // pre high -> clock low
    p.pulsed = 0.0;     // pre low  -> clock high
    p.delay = ph.start;
    p.rise = kClockEdge;
    p.fall = kClockEdge;
    p.width = (ph.end - ph.start) - kClockEdge;
    p.period = kCyclePeriod;
    const std::string pre = std::string("pre") + ph.name;
    const std::string drv = std::string("drv") + ph.name;
    n.add_vsource("VPRE" + std::to_string(k), pre, "0",
                  SourceSpec::pulse(p));
    n.add_mosfet("MBP" + std::to_string(k), MosType::kPmos, drv, pre, "vddd",
                 "vddd", 40e-6 * drive, L, pm);
    n.add_mosfet("MBN" + std::to_string(k), MosType::kNmos, drv, pre, "0",
                 "0", 20e-6 * drive, L, nm);
    n.add_resistor("RCLK" + std::to_string(k), drv, ph.name,
                   kClockBufferOhms / drive);
  }
  return n;
}

DecisionGridBench chip_grid_bench(const ChipOptions& options) {
  return {[options](const Netlist& macro_netlist, int slice, double delta_v) {
            return instantiate_chip_bench(macro_netlist, options, slice,
                                          delta_v);
          },
          [options](const spice::TranResult& result, int slice) {
            return extract_chip_run(result, options, slice);
          },
          [options](const fault::CircuitFault& fault) {
            return chip_observed_slice(options, fault);
          },
          options.slices / 2, chip_tran_options()};
}

spice::TranOptions chip_tran_options() { return bank_tran_options(); }

ComparatorRun extract_chip_run(const spice::TranResult& result,
                               const ChipOptions& options, int slice) {
  check_options(options);
  if (slice < 0 || slice >= options.slices)
    throw util::InvalidInputError("chip bench: slice out of range");
  check_measurement_horizon(result);
  ComparatorRun run;
  auto delivered = [&](double t, const std::string& src) {
    return -result.current_at(t, src);
  };
  const double t_meas[3] = {kMeasSample, kMeasAmp, kMeasLatch};
  for (int p = 0; p < 3; ++p) {
    const double t = t_meas[p];
    // The bias generator sits behind VDDA here, so the analog supply
    // alone is the whole-chip analog current (the bank bench had to
    // add its external bias Thevenins in).
    run.ivdd[static_cast<std::size_t>(p)] = delivered(t, "VDDA");
    run.iddq[static_cast<std::size_t>(p)] = delivered(t, "VDDD");
    run.iin[static_cast<std::size_t>(p)] = delivered(t, "VIN");
    run.iref[static_cast<std::size_t>(p)] =
        delivered(t, "VREFP") + delivered(t, "VREFM");
  }
  run.clock_levels = {
      result.voltage_at(kMeasSample, "clk1"),  // clk1 hi
      result.voltage_at(kMeasAmp, "clk1"),     // clk1 lo
      result.voltage_at(kMeasAmp, "clk2"),     // clk2 hi
      result.voltage_at(kMeasSample, "clk2"),  // clk2 lo
      result.voltage_at(kMeasLatch, "clk3"),   // clk3 hi
      result.voltage_at(kMeasSample, "clk3"),  // clk3 lo
  };
  const double t_read = kCyclePeriod + (kAmpStart + kAmpEnd) / 2.0;
  const std::string prefix = bank_slice_net_prefix(slice);
  const double q = result.voltage_at(t_read, prefix + "q");
  const double qb = result.voltage_at(t_read, prefix + "qb");
  if (q - qb > 3.0)
    run.decision = 1;
  else if (qb - q > 3.0)
    run.decision = -1;
  else
    run.decision = 0;
  run.converged = true;
  return run;
}

}  // namespace dot::flashadc

#include "flashadc/bank.hpp"

#include <algorithm>
#include <cctype>

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

void check_options(const BankOptions& options) {
  if (options.size < 2 || options.size > kLevels ||
      kLevels % options.size != 0)
    throw util::InvalidInputError(
        "bank: size must lie in 2.." + std::to_string(kLevels) +
        " and divide " + std::to_string(kLevels) + ", got " +
        std::to_string(options.size));
}

/// Shared distribution nets: identical names in the bank and in the
/// single-comparator cell.
const std::vector<std::string>& shared_nets() {
  static const std::vector<std::string> nets = {"vin", "clk1", "clk2",
                                                "clk3", "vbn",  "vbc",
                                                "vdda", "0"};
  return nets;
}

bool is_shared_net(const std::string& net) {
  const auto& nets = shared_nets();
  return std::find(nets.begin(), nets.end(), net) != nets.end();
}

/// Parses "<prefix><number><rest>"; returns the number and leaves rest
/// in `rest`, or nullopt when the name does not start with prefix+digit.
std::optional<int> parse_indexed(const std::string& name,
                                 const std::string& prefix,
                                 std::string& rest) {
  if (name.size() <= prefix.size() ||
      name.compare(0, prefix.size(), prefix) != 0)
    return std::nullopt;
  std::size_t i = prefix.size();
  if (!std::isdigit(static_cast<unsigned char>(name[i]))) return std::nullopt;
  int value = 0;
  while (i < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[i]))) {
    value = value * 10 + (name[i] - '0');
    ++i;
  }
  rest = name.substr(i);
  return value;
}

}  // namespace

std::string bank_slice_net_prefix(int slice) {
  return "s" + std::to_string(slice) + "_";
}

std::string bank_slice_device_prefix(int slice) {
  return "S" + std::to_string(slice) + "_";
}

std::string bank_tap_net(int slice) {
  return "ref" + std::to_string(slice);
}

std::string bank_input_net(int slice) {
  return "in" + std::to_string(slice);
}

double bank_tap_voltage(const BankOptions& options, int slice) {
  check_options(options);
  if (slice < 0 || slice >= options.size)
    throw util::InvalidInputError("bank_tap_voltage: slice out of range");
  const double center = (kVrefLo + kVrefHi) / 2.0;
  return center +
         (static_cast<double>(slice) -
          (static_cast<double>(options.size) - 1.0) / 2.0) *
             lsb();
}

Netlist build_bank_netlist(const BankOptions& options) {
  check_options(options);
  // One slice's devices, renamed into the bank namespace: slice-local
  // nets get the s<k>_ prefix, shared distribution nets keep their
  // names, and the slice's vref pin lands on its reference tap.
  const Netlist slice_netlist = build_comparator_netlist(options.dft);
  Netlist n;
  for (int k = 0; k < options.size; ++k) {
    const std::string net_prefix = bank_slice_net_prefix(k);
    const std::string dev_prefix = bank_slice_device_prefix(k);
    auto map_net = [&](const std::string& net) -> std::string {
      if (net == "vref") return bank_tap_net(k);
      if (net == "vin") return bank_input_net(k);
      if (is_shared_net(net)) return net;
      return net_prefix + net;
    };
    n.append_renamed(slice_netlist, dev_prefix, map_net);
  }
  // Shared reference tap string: one fine-ladder resistor per step,
  // anchored at the vrefp/vrefm pins (the window of the dual ladder the
  // column spans). size+1 resistors, taps ref0..ref<size-1> between.
  for (int k = 0; k <= options.size; ++k) {
    const std::string lower = k == 0 ? "vrefm" : bank_tap_net(k - 1);
    const std::string upper =
        k == options.size ? "vrefp" : bank_tap_net(k);
    n.add_resistor("RREF" + std::to_string(k), lower, upper, kFineOhms);
  }
  // Input distribution trunk: the analog input runs the full column
  // height, one wire segment per slice, fed from the vin pin at both
  // ends. Mirroring the tap string's per-slice RC keeps the sampling
  // transient common-mode: every slice's inp and inn charge through
  // the same distributed delay profile, so the hysteretic preamps see
  // only the true overdrive, never a layout-induced skew. (A lumped
  // low-impedance input would charge inp in ~0.2 ns while mid-string
  // taps take ~size^2 Elmore delay -- at 64 slices that start-up skew
  // tips the middle comparators into the wrong latched state.)
  for (int k = 0; k <= options.size; ++k) {
    const std::string lower = k == 0 ? "vin" : bank_input_net(k - 1);
    const std::string upper =
        k == options.size ? "vin" : bank_input_net(k);
    n.add_resistor("RIN" + std::to_string(k), lower, upper, kFineOhms);
  }
  return n;
}

std::vector<std::string> bank_pins(const BankOptions& options) {
  check_options(options);
  std::vector<std::string> pins = {"vin", "vrefp", "vrefm", "clk1", "clk2",
                                   "clk3", "vbn",  "vbc",   "vdda", "0"};
  for (int k = 0; k < options.size; ++k) {
    pins.push_back(bank_slice_net_prefix(k) + "q");
    pins.push_back(bank_slice_net_prefix(k) + "qb");
  }
  return pins;
}

layout::CellLayout build_bank_layout(const BankOptions& options) {
  check_options(options);
  layout::SynthOptions opt;
  opt.vdd_net = "vdda";
  opt.pins = bank_pins(options);
  // Shared distribution trunks first, with the same bias-line adjacency
  // question the single-comparator DfT measure answers -- except here a
  // vbn/vbc bridge couples every slice at once. The reference taps
  // follow in column order, so neighbouring-tap shorts (inter-slice by
  // construction) get realistic shared run lengths.
  if (options.dft.separated_bias_lines) {
    opt.track_order = {"vbn", "clk1", "clk2", "vbc", "clk3", "vin"};
  } else {
    opt.track_order = {"vbn", "vbc", "clk1", "clk2", "clk3", "vin"};
  }
  // Reference tap and input-trunk segments interleave up the column:
  // each slice's tap runs beside its stretch of the input trunk, so a
  // tap-to-input bridge (which aliases the slice's decision point) is a
  // realistic neighbouring-track defect.
  for (int k = 0; k < options.size; ++k) {
    opt.track_order.push_back(bank_tap_net(k));
    opt.track_order.push_back(bank_input_net(k));
  }
  return layout::synthesize_layout(build_bank_netlist(options),
                                   "bank", opt);
}

macro::MacroCell build_bank_macro(const BankOptions& options) {
  check_options(options);
  return macro::MacroCell(
      "bank", build_bank_netlist(options), build_bank_layout(options),
      bank_pins(options),
      static_cast<std::size_t>(kLevels / options.size));
}

// ---------------------------------------------------------------------
// Decomposition mapping.

macro::SliceMapper bank_slice_mapper(const BankOptions& options) {
  check_options(options);
  const int size = options.size;
  macro::SliceMapper mapper;
  mapper.net = [size](const std::string& net)
      -> std::optional<std::pair<int, std::string>> {
    if (is_shared_net(net)) return std::make_pair(-1, net);
    std::string rest;
    if (const auto slice = parse_indexed(net, "s", rest)) {
      if (*slice < size && !rest.empty() && rest.front() == '_')
        return std::make_pair(*slice, rest.substr(1));
    }
    if (const auto slice = parse_indexed(net, "ref", rest)) {
      if (*slice < size && rest.empty())
        return std::make_pair(*slice, std::string("vref"));
    }
    if (const auto slice = parse_indexed(net, "in", rest)) {
      if (*slice < size && rest.empty())
        return std::make_pair(*slice, std::string("vin"));
    }
    // vrefp/vrefm and split-net artifacts: outside the sub-cell.
    return std::nullopt;
  };
  mapper.device = [size](const std::string& device)
      -> std::optional<std::pair<int, std::string>> {
    std::string rest;
    if (const auto slice = parse_indexed(device, "S", rest)) {
      if (*slice < size && !rest.empty() && rest.front() == '_')
        return std::make_pair(*slice, rest.substr(1));
    }
    if (const auto slice = parse_indexed(device, "RREF", rest)) {
      // Tap-string hardware: owned by the slice below it, but the
      // comparator cell has no counterpart device (the decomposition
      // models the ladder as its own macro).
      if (*slice <= size && rest.empty())
        return std::make_pair(std::min(*slice, size - 1), std::string());
    }
    if (const auto slice = parse_indexed(device, "RIN", rest)) {
      // Input-trunk wire segments: likewise slice-owned hardware with
      // no single-comparator counterpart (the decomposition drives vin
      // as an ideal pin).
      if (*slice <= size && rest.empty())
        return std::make_pair(std::min(*slice, size - 1), std::string());
    }
    return std::nullopt;
  };
  return mapper;
}

int bank_observed_slice(const BankOptions& options,
                        const fault::CircuitFault& fault) {
  const auto projected =
      macro::project_fault(fault, bank_slice_mapper(options));
  if (projected.slice >= 0) return projected.slice;
  // Fully-shared (or unplaceable) classes: observe the middle slice,
  // whose tap sits at mid-scale like the per-comparator bench's
  // reference.
  return options.size / 2;
}

// ---------------------------------------------------------------------
// Flat-bank fault simulation.

Netlist instantiate_bank_bench(const Netlist& macro_netlist,
                               const BankOptions& options, int slice,
                               double delta_v) {
  check_options(options);
  if (slice < 0 || slice >= options.size)
    throw util::InvalidInputError("bank bench: slice out of range");
  Netlist n = macro_netlist;
  const auto nm = nmos_model();
  const auto pm = pmos_model();
  const double L = 1e-6;

  // Supplies.
  n.add_vsource("VDDA", "vdda", "0", SourceSpec::dc(kVdda));
  n.add_vsource("VDDD", "vddd", "0", SourceSpec::dc(kVddd));

  // Analog input, driven at the observed slice's decision point. All
  // slices share it, exactly like the real converter.
  n.add_vsource("VIN", "vin", "0",
                SourceSpec::dc(bank_tap_voltage(options, slice) + delta_v));

  // Reference window: the tap string is part of the macro; the bench
  // only drives its ends. With size+1 equal resistors, ends one full
  // step beyond the outer taps put every tap k exactly at
  // bank_tap_voltage(k).
  n.add_vsource("VREFP", "vrefp", "0",
                SourceSpec::dc(bank_tap_voltage(options, options.size - 1) +
                               lsb()));
  n.add_vsource("VREFM", "vrefm", "0",
                SourceSpec::dc(bank_tap_voltage(options, 0) - lsb()));

  // Bias lines: one generator drives the whole column.
  n.add_vsource("VBN_SRC", "vbn_src", "0", SourceSpec::dc(kVbn));
  n.add_resistor("RVBN", "vbn_src", "vbn", kBiasOutputOhms);
  n.add_vsource("VBC_SRC", "vbc_src", "0", SourceSpec::dc(kVbc));
  n.add_resistor("RVBC", "vbc_src", "vbc", kBiasOutputOhms);

  // Clock drivers: the clock generator's final buffers, shared by every
  // slice of the column (the distribution trunks are macro nets). The
  // buffers are sized for their load -- one column's worth of switch
  // gates -- so width scales with the column height, exactly as the
  // real converter sizes its clock tree.
  const double drive = static_cast<double>(options.size);
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

DecisionGridBench bank_grid_bench(const BankOptions& options) {
  return {[options](const Netlist& macro_netlist, int slice, double delta_v) {
            return instantiate_bank_bench(macro_netlist, options, slice,
                                          delta_v);
          },
          [options](const spice::TranResult& result, int slice) {
            return extract_bank_run(result, options, slice);
          },
          [options](const fault::CircuitFault& fault) {
            return bank_observed_slice(options, fault);
          },
          options.size / 2, bank_tran_options()};
}

spice::TranOptions bank_tran_options() {
  spice::TranOptions opt;
  opt.dt = 0.5e-9;
  opt.t_stop = kMeasEnd + opt.dt;
  opt.dt_min = 1e-13;
  opt.newton.max_iterations = 120;
  // Skip the t = 0 operating point: with every clock low the sampled
  // nodes float behind subthreshold leakage, and on a column-sized
  // system that near-singular DC solve fails for many perturbed /
  // faulted variants. Integrating from the zero state is robust -- the
  // caps pin every floating node -- and lands in the same first-cycle
  // trajectory (measurements are read in cycle 2 regardless).
  opt.start_from_dc = false;
  return opt;
}

ComparatorRun extract_bank_run(const spice::TranResult& result,
                               const BankOptions& options, int slice) {
  check_options(options);
  if (slice < 0 || slice >= options.size)
    throw util::InvalidInputError("bank bench: slice out of range");
  check_measurement_horizon(result);
  ComparatorRun run;
  auto delivered = [&](double t, const std::string& src) {
    return -result.current_at(t, src);
  };
  const double t_meas[3] = {kMeasSample, kMeasAmp, kMeasLatch};
  for (int p = 0; p < 3; ++p) {
    const double t = t_meas[p];
    run.ivdd[static_cast<std::size_t>(p)] = delivered(t, "VDDA") +
                                            delivered(t, "VBN_SRC") +
                                            delivered(t, "VBC_SRC");
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

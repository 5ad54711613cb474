#include "flashadc/comparator_sim.hpp"

#include <cmath>

#include "flashadc/tech.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"

namespace dot::flashadc {

using spice::MosType;
using spice::Netlist;
using spice::PulseParams;
using spice::SourceSpec;

namespace {

/// Inverted pre-drive pulse for a clock phase that must be HIGH during
/// [start, end) of every cycle (the driver inverter flips it).
SourceSpec predrive(double start, double end) {
  PulseParams p;
  p.initial = kVddd;  // pre high -> clock low
  p.pulsed = 0.0;     // pre low  -> clock high
  p.delay = start;
  p.rise = kClockEdge;
  p.fall = kClockEdge;
  p.width = (end - start) - kClockEdge;
  p.period = kCyclePeriod;
  return SourceSpec::pulse(p);
}

}  // namespace

Netlist instantiate_comparator_bench(const Netlist& macro, double delta_v) {
  Netlist n = macro;
  const auto nm = nmos_model();
  const auto pm = pmos_model();
  const double L = 1e-6;
  const double vref_tap = (kVrefLo + kVrefHi) / 2.0;

  // Supplies.
  n.add_vsource("VDDA", "vdda", "0", SourceSpec::dc(kVdda));
  n.add_vsource("VDDD", "vddd", "0", SourceSpec::dc(kVddd));

  // Analog input: externally driven chip pin, low impedance.
  n.add_vsource("VIN", "vin", "0", SourceSpec::dc(vref_tap + delta_v));

  // Reference: ladder tap through its Thevenin resistance.
  n.add_vsource("VREF", "vref_src", "0", SourceSpec::dc(vref_tap));
  n.add_resistor("RREF", "vref_src", "vref", 40.0);

  // Bias lines from the bias generator (diode output impedance).
  n.add_vsource("VBN_SRC", "vbn_src", "0", SourceSpec::dc(kVbn));
  n.add_resistor("RVBN", "vbn_src", "vbn", kBiasOutputOhms);
  n.add_vsource("VBC_SRC", "vbc_src", "0", SourceSpec::dc(kVbc));
  n.add_resistor("RVBC", "vbc_src", "vbc", kBiasOutputOhms);

  // Clock drivers: the clock generator's final buffer inverters, powered
  // by the digital supply, plus the distribution-line resistance.
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
    const std::string pre = std::string("pre") + ph.name;
    const std::string drv = std::string("drv") + ph.name;
    n.add_vsource("VPRE" + std::to_string(k), pre, "0",
                  predrive(ph.start, ph.end));
    n.add_mosfet("MBP" + std::to_string(k), MosType::kPmos, drv, pre, "vddd",
                 "vddd", 40e-6, L, pm);
    n.add_mosfet("MBN" + std::to_string(k), MosType::kNmos, drv, pre, "0",
                 "0", 20e-6, L, nm);
    n.add_resistor("RCLK" + std::to_string(k), drv, ph.name,
                   kClockBufferOhms);
  }
  return n;
}

spice::TranOptions comparator_tran_options() {
  spice::TranOptions opt;
  opt.dt = 0.5e-9;
  opt.t_stop = kMeasEnd + opt.dt;
  opt.dt_min = 1e-13;
  opt.newton.max_iterations = 120;
  return opt;
}

void check_measurement_horizon(const spice::TranResult& result) {
  if (result.steps() == 0 || result.times().back() < kMeasEnd)
    throw util::InvalidInputError(
        "run record: waveform ends before the last measurement instant");
}

ComparatorRun extract_comparator_run(const spice::TranResult& result) {
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
    run.iref[static_cast<std::size_t>(p)] = delivered(t, "VREF");
  }
  // Clock levels: each phase's pin voltage when it should be high and at
  // a phase where it should be low.
  run.clock_levels = {
      result.voltage_at(kMeasSample, "clk1"),  // clk1 hi
      result.voltage_at(kMeasAmp, "clk1"),     // clk1 lo
      result.voltage_at(kMeasAmp, "clk2"),     // clk2 hi
      result.voltage_at(kMeasSample, "clk2"),  // clk2 lo
      result.voltage_at(kMeasLatch, "clk3"),   // clk3 hi
      result.voltage_at(kMeasSample, "clk3"),  // clk3 lo
  };
  // Decision: the flipflop output pair -- what the decoder column
  // actually sees -- read during the quiet amplification phase of the
  // second cycle, after the flipflop captured and held the cycle-1
  // decision. q high means "vin > vref". A flipflop that fails to
  // produce complementary logic levels yields decision 0 (invalid).
  const double t_read = kCyclePeriod + (kAmpStart + kAmpEnd) / 2.0;
  const double q = result.voltage_at(t_read, "q");
  const double qb = result.voltage_at(t_read, "qb");
  if (q - qb > 3.0)
    run.decision = 1;
  else if (qb - q > 3.0)
    run.decision = -1;
  else
    run.decision = 0;
  run.converged = true;
  return run;
}

ComparatorRun simulate_comparator(const Netlist& macro, double delta_v) {
  const Netlist bench = instantiate_comparator_bench(macro, delta_v);
  try {
    return extract_comparator_run(
        spice::transient(bench, comparator_tran_options()));
  } catch (const util::ConvergenceError&) {
    ComparatorRun failed;
    failed.converged = false;
    return failed;
  }
}

DecisionGridBench comparator_grid_bench() {
  return {[](const Netlist& macro, int, double delta_v) {
            return instantiate_comparator_bench(macro, delta_v);
          },
          [](const spice::TranResult& result, int) {
            return extract_comparator_run(result);
          },
          [](const fault::CircuitFault&) { return 0; }, 0,
          comparator_tran_options()};
}

std::array<ComparatorRun, 4> run_decision_grid(
    const DecisionGridBench& bench, const Netlist& macro, int slice,
    spice::PhaseTimes* phases) {
  std::array<ComparatorRun, 4> runs;
  for (std::size_t i = 0; i < kDecisionGrid.size(); ++i) {
    const Netlist full = bench.instantiate(macro, slice, kDecisionGrid[i]);
    try {
      const spice::TranResult result = spice::transient(full, bench.tran);
      if (phases != nullptr) *phases += result.stats().phases;
      runs[i] = bench.extract(result, slice);
    } catch (const util::ConvergenceError&) {
      runs[i].converged = false;
    }
  }
  return runs;
}

macro::MeasurementLayout comparator_measurement_layout() {
  macro::MeasurementLayout layout;
  const char* pols[] = {"lo", "hi"};
  const char* phases[] = {"sample", "amp", "latch"};
  for (const char* pol : pols) {
    for (const char* phase : phases) {
      const std::string suffix = std::string("_") + phase + "_" + pol;
      layout.add("ivdd" + suffix, macro::MeasurementKind::kIVdd);
      layout.add("iddq" + suffix, macro::MeasurementKind::kIddq);
      layout.add("iin" + suffix, macro::MeasurementKind::kIinput);
      layout.add("iref" + suffix, macro::MeasurementKind::kIinput);
    }
  }
  return layout;
}

std::vector<double> comparator_measurements(const ComparatorRun& lo,
                                            const ComparatorRun& hi) {
  std::vector<double> values;
  values.reserve(24);
  for (const ComparatorRun* run : {&lo, &hi}) {
    for (int p = 0; p < 3; ++p) {
      const auto i = static_cast<std::size_t>(p);
      values.push_back(run->ivdd[i]);
      values.push_back(run->iddq[i]);
      values.push_back(run->iin[i]);
      values.push_back(run->iref[i]);
    }
  }
  return values;
}

macro::VoltageSignature classify_comparator(
    const std::array<ComparatorRun, 4>& faulty,
    const std::array<ComparatorRun, 4>& nominal,
    double clock_level_tolerance) {
  using macro::VoltageSignature;

  // A non-converging faulty circuit is grossly broken: stuck output.
  for (const auto& run : faulty)
    if (!run.converged) return VoltageSignature::kOutputStuckAt;

  int faulty_d[4], nominal_d[4];
  for (int i = 0; i < 4; ++i) {
    faulty_d[i] = faulty[static_cast<std::size_t>(i)].decision;
    nominal_d[i] = nominal[static_cast<std::size_t>(i)].decision;
  }

  bool decisions_ok = true;
  for (int i = 0; i < 4; ++i)
    decisions_ok = decisions_ok && faulty_d[i] == nominal_d[i];

  if (!decisions_ok) {
    // Invalid flipflop levels: the decoder sees garbage. A mostly-dead
    // flipflop reads as stuck; occasional invalid levels as mixed.
    int zeros = 0;
    for (int d : faulty_d) zeros += d == 0;
    if (zeros >= 3) return VoltageSignature::kOutputStuckAt;
    if (zeros > 0) return VoltageSignature::kMixed;
    // All-same decisions: stuck at one side.
    if (faulty_d[0] == faulty_d[1] && faulty_d[1] == faulty_d[2] &&
        faulty_d[2] == faulty_d[3])
      return VoltageSignature::kOutputStuckAt;
    // Monotonic but shifted threshold beyond the 8 mV boundary: offset.
    bool monotonic = true;
    for (int i = 0; i + 1 < 4; ++i)
      monotonic = monotonic && faulty_d[i] <= faulty_d[i + 1];
    if (monotonic) return VoltageSignature::kOffset;
    return VoltageSignature::kMixed;
  }

  // Function intact: does a clock line level deviate? (Typical for
  // high-ohmic faults on the clock distribution lines.)
  for (std::size_t i = 0; i < 6; ++i) {
    double worst = 0.0;
    for (std::size_t g = 0; g < 4; ++g)
      worst = std::max(worst, std::fabs(faulty[g].clock_levels[i] -
                                        nominal[g].clock_levels[i]));
    if (worst > clock_level_tolerance) return VoltageSignature::kClockValue;
  }
  return VoltageSignature::kNoDeviation;
}

}  // namespace dot::flashadc

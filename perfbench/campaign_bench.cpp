// Single-thread campaign benchmark for the defect-oriented test flow.
//
//   campaign_bench --workload=full|bank --seed=N --seconds=S --trace=0|1
//                  --journal=PATH
//
// Workloads (one thread each, on the scalar evaluation path, --batch=1,
// the default; the seed drives the defect sprinkle and the Monte-Carlo
// envelope), sized after runs the repository already makes:
//   full   the five-macro flow of paper fig. 1 at the bench --quick preset
//          (60k defects, 10 envelope samples, top 40 classes per macro)
//   bank   the 8-slice flat comparator bank with the 24 classes of the bank
//          row of EXPERIMENTS.md's batched-throughput table, at the --quick
//          defect and envelope counts
// The batched path runs once per invocation as a verdict check, untimed:
// its lockstep prepass evaluates a whole chunk of classes before the first
// journal record, so it has no per-class stages to time.
//
// Set-up runs (the campaign with its class list sharded away: sprinkle,
// collapse, golden runs, envelope, no class evaluated) alternate with
// full-size campaigns until the window has passed. Both run journaled, and
// the journal observer stamps every record, which cuts a run into stages:
// each macro's sprinkle, each fault class, the tail. A shared host can
// switch between a fast and a ~1.7x slower state every second or so, and
// stay mostly in one of them for minutes, so wall times of whole campaigns
// spread by half from one run to the next. Stages last 2-1000 ms. A short
// fixed probe kernel runs at every stage boundary, outside the stage, and
// each stage time is divided by the probes on either side of it; that
// ratio barely moves when the host changes state (see StageClock).
// --trace 0, the end-to-end run, reports over a window of --seconds:
//   campaign_s  full-size campaign time at reference host speed: the sum
//               over its stages of each stage's median scaled time
//   setup_s     the same sum over the set-up runs' stages
// --trace 1, the per-layer run, gives half its window to those runs and
// half to the layers of the campaign's own work: the sprinkle + collapse
// of every macro at the campaign's seeds, and the solver phase split per
// fault class: the scalar path has no phase clock, so every transient of
// the campaign's first classes re-runs through spice::transient. Each
// metric is a median.
//
// Every run checks its verdicts: repeated campaigns agree exactly, the
// batched path gives the same per-class verdicts, every class resolves,
// and a pinned comparator campaign on the scalar path reproduces the
// repository's golden corpus, a reference that does not come from the
// code being timed. The last stdout line is
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0
// whenever the run completed, correct or not.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "defect/simulate.hpp"
#include "fault/model.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/campaign.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "flashadc/tech.hpp"
#include "macro/macro_cell.hpp"
#include "spice/transient.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dot;
using Clock = std::chrono::steady_clock;
using flashadc::CampaignConfig;
using flashadc::EvalStatus;
using flashadc::FaultOutcome;
using flashadc::GlobalResult;
using flashadc::MacroCampaignResult;

constexpr std::size_t kMinRuns = 3;       // stage medians need a few runs
constexpr std::size_t kProbeClasses = 4;  // classes per scalar solver probe

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Host-speed probe. The probe kernels are this file's own fixed code, so a
// change to the simulator moves the stage times but not the probe.

volatile double g_probe_sink = 0.0;

/// Dense LU factorization of a cache-resident 48x48 matrix: floating
/// point, like the MNA solves.
double probe_lu() {
  constexpr int n = 48;
  double a[n * n];
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 12; ++rep) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        a[i * n + j] = (i == j ? 2.0 * n : 0.0) + 1.0 / (1 + i + j + rep);
    for (int k = 0; k < n; ++k)
      for (int i = k + 1; i < n; ++i) {
        const double f = a[i * n + k] / a[k * n + k];
        for (int j = k; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
      }
    g_probe_sink = g_probe_sink + a[n * n - 1];
  }
  return seconds_since(t0);
}

/// Ordered-map inserts: allocation and pointer chasing, like netlist and
/// fault bookkeeping.
double probe_map() {
  const Clock::time_point t0 = Clock::now();
  std::map<unsigned, double> m;
  unsigned x = 12345;
  for (int i = 0; i < 3000; ++i) {
    x = x * 1103515245u + 12345u;
    m[(x >> 8) % 5000] += 1.0;
  }
  double s = 0.0;
  for (const auto& [k, v] : m) s += v * k;
  g_probe_sink = g_probe_sink + s;
  return seconds_since(t0);
}

/// exp/log with branches, like the MOSFET model evaluation.
double probe_exp() {
  const Clock::time_point t0 = Clock::now();
  double s = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = 1e-3 * i;
    s += std::exp(-v) * (v > 3.0 ? v - 3.0 : 0.5 * v * v) + std::log1p(v);
  }
  g_probe_sink = g_probe_sink + s;
  return seconds_since(t0);
}

/// Geometric mean of the three probe times (about 1 ms in all).
double probe_seconds() {
  return std::cbrt(probe_lu() * probe_map() * probe_exp());
}

/// The probe time that defines a reference-speed second: about what the
/// probe takes in the fast state of a shared 4-vCPU x86-64 VM.
constexpr double kProbeReferenceSeconds = 0.36e-3;

/// Stage times of a journaled campaign over repeated runs. A stage ends at
/// a journal record (a macro's sprinkle + collapse, or one fault class) or,
/// for the last one, when the campaign returns. Each stage time is divided
/// by the mean of the probes taken just before and just after it; the
/// clock reports the sum over stages of each stage's median scaled time,
/// in reference-speed seconds.
class StageClock {
 public:
  /// `journal` is the scratch journal path the timed runs write.
  StageClock(CampaignConfig config, const std::string& journal)
      : config_(std::move(config)) {
    // The observer captures `this`, so the clock never moves.
    config_.resilience.journal_path = journal;
    // One write when the campaign closes its journal, none while timing.
    config_.resilience.checkpoint_block = std::size_t{1} << 30;
    config_.resilience.journal_observer = [this](const std::string&) {
      end_stage();
    };
  }
  StageClock(const StageClock&) = delete;
  StageClock& operator=(const StageClock&) = delete;

  /// Runs the campaign once and folds its stage times in; clears `ok` if
  /// the run has a different stage count than the first.
  GlobalResult run(bool& ok) {
    stages_.clear();
    probes_.assign(1, probe_seconds());
    const Clock::time_point start = Clock::now();
    stage_start_ = start;
    GlobalResult r = flashadc::run_campaign(config_);
    end_stage();
    if (scaled_.empty()) scaled_.resize(stages_.size());
    if (stages_.size() != scaled_.size()) {
      std::fprintf(stderr, "stage count changed from %zu to %zu\n",
                   scaled_.size(), stages_.size());
      ok = false;
      return r;
    }
    wall_ = scaled_run_ = 0.0;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      const double s = stages_[i] * kProbeReferenceSeconds /
                       (0.5 * (probes_[i] + probes_[i + 1]));
      scaled_[i].push_back(s);
      wall_ += stages_[i];
      scaled_run_ += s;
    }
    return r;
  }

  double total() const {
    double sum = 0.0;
    for (const auto& s : scaled_) sum += median(s);
    return sum;
  }
  /// The last run's stage times summed: as measured, and scaled.
  double last_wall() const { return wall_; }
  double last_scaled() const { return scaled_run_; }

 private:
  void end_stage() {
    stages_.push_back(seconds_since(stage_start_));
    probes_.push_back(probe_seconds());
    stage_start_ = Clock::now();
  }

  CampaignConfig config_;
  Clock::time_point stage_start_;
  std::vector<double> stages_, probes_;
  std::vector<std::vector<double>> scaled_;  // [stage][run]
  double wall_ = 0.0, scaled_run_ = 0.0;
};

// ---------------------------------------------------------------------
// Workloads.

CampaignConfig workload_config(const std::string& name, std::uint64_t seed) {
  CampaignConfig c;
  c.seed = seed;
  if (name == "full") {
    c.macro_selection = "all";
    c.defect_count = 60000;
    c.envelope_samples = 10;
    c.max_classes = 40;
    c.batch = 1;
  } else if (name == "bank") {
    c.macro_selection = "bank";
    c.bank_size = 8;
    c.defect_count = 60000;
    c.envelope_samples = 10;
    c.max_classes = 24;
    c.batch = 1;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return c;
}

flashadc::BankOptions bank_options(const CampaignConfig& c) {
  flashadc::BankOptions opt;
  opt.size = c.bank_size;
  opt.dft = c.dft;
  opt.solver = c.solver;
  return opt;
}

/// A macro the workload's campaign sprinkles, with the seed offset the
/// campaign gives its sprinkle.
struct SprinkledMacro {
  macro::MacroCell cell;
  std::uint64_t seed_offset = 0;
};

/// The workload's macros in campaign order; the first one holds the
/// transient bench.
std::vector<SprinkledMacro> workload_macros(const CampaignConfig& c) {
  std::vector<SprinkledMacro> cells;
  if (c.macro_selection == "bank") {
    cells.push_back({flashadc::build_bank_macro(bank_options(c)), 6});
  } else {
    cells.push_back({flashadc::build_comparator_macro(c.dft), 1});
    cells.push_back({flashadc::build_ladder_macro(), 2});
    cells.push_back({flashadc::build_biasgen_macro(), 3});
    cells.push_back({flashadc::build_clockgen_macro(), 4});
    cells.push_back({flashadc::build_decoder_macro(), 5});
  }
  return cells;
}

// ---------------------------------------------------------------------
// Verdicts and their checks.

/// One line per evaluated (macro, class, pass): the class identity and
/// everything the coverage compilation consumes.
std::vector<std::string> verdict_lines(const GlobalResult& r) {
  std::vector<std::string> lines;
  auto add = [&](const std::string& macro, const FaultOutcome& o) {
    std::string s = macro + (o.non_catastrophic ? "|noncat|" : "|cat|") +
                    fault::fault_kind_name(o.cls.representative.kind);
    for (const auto& net : o.cls.representative.nets) s += ',' + net;
    s += '|' + o.cls.representative.device;
    s += '|' + std::to_string(o.cls.count);
    s += '|' + macro::voltage_signature_name(o.voltage);
    const bool flags[] = {o.current.ivdd,         o.current.iddq,
                          o.current.iinput,       o.detection.missing_code,
                          o.detection.ivdd,       o.detection.iddq,
                          o.detection.iinput,     o.status == EvalStatus::kOk};
    s += '|';
    for (const bool f : flags) s += f ? '1' : '0';
    lines.push_back(std::move(s));
  };
  for (const auto& m : r.macros) {
    for (const auto& o : m.catastrophic) add(m.macro_name, o);
    for (const auto& o : m.noncatastrophic) add(m.macro_name, o);
  }
  return lines;
}

/// Lines of `got` that differ from (or are missing in) `expected`.
std::size_t mismatches(const std::vector<std::string>& expected,
                       const std::vector<std::string>& got,
                       const char* what) {
  std::size_t bad = 0;
  const std::size_t n = std::max(expected.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* e = i < expected.size() ? &expected[i] : nullptr;
    const std::string* g = i < got.size() ? &got[i] : nullptr;
    if (e != nullptr && g != nullptr && *e == *g) continue;
    if (bad++ < 3)
      std::fprintf(stderr, "%s mismatch:\n  expected %s\n  got      %s\n",
                   what, e ? e->c_str() : "<none>", g ? g->c_str() : "<none>");
  }
  return bad;
}

std::size_t class_count(const GlobalResult& r) {
  std::size_t n = 0;
  for (const auto& m : r.macros) n += m.catastrophic.size();
  return n;
}

/// Checks a campaign result's shape; returns the classes that fail
/// (unresolved ones) and clears `ok` on a wrong shape.
std::size_t check_result(const GlobalResult& r, const CampaignConfig& config,
                         bool& ok) {
  auto fail = [&](const std::string& macro, const char* what) {
    std::fprintf(stderr, "check failed on macro %s: %s\n", macro.c_str(),
                 what);
    ok = false;
  };
  const std::size_t want_macros = config.macro_selection == "all" ? 5 : 1;
  if (r.macros.size() != want_macros) fail("-", "wrong macro count");
  const flashadc::ResilienceOptions& shards = config.resilience;
  std::size_t failed = 0, lockstep = 0;
  for (const auto& m : r.macros) {
    const std::size_t collapsed = m.defects.classes.size();
    if (collapsed == 0) fail(m.macro_name, "no fault classes");
    const std::size_t ranked =
        config.max_classes == 0 ? collapsed
                                : std::min(collapsed, config.max_classes);
    std::size_t want = 0;
    for (std::size_t c = 0; c < ranked; ++c)
      if (c % shards.shard_count == shards.shard_index) ++want;
    if (m.catastrophic.size() != want) fail(m.macro_name, "class count");
    failed += m.unresolved_classes();
    lockstep += m.batch_evaluated;
  }
  if (config.batch != 1 && lockstep == 0)
    fail("-", "batched path evaluated no class");
  return failed;
}

/// A population of the golden corpus: Table-2 voltage-signature and
/// Table-3 current-signature weight fractions, coverage, class count.
struct GoldenPopulation {
  std::vector<std::pair<const char*, double>> voltage;
  double current[4];  // ivdd, iddq, iinput, none
  double coverage;
  std::size_t classes;
};

/// tests/golden/comparator_signatures.json: the comparator campaign at
/// 20k defects, 4 envelope samples, 16 classes, seed 19950307, as
/// recorded when the corpus was generated.
const GoldenPopulation kGolden[2] = {
    {{{"Output Stuck At", 0.48},
      {"Offset (> 8mV)", 0.0666666666667},
      {"Mixed", 0.0},
      {"Clock value", 0.293333333333},
      {"No deviations", 0.16}},
     {0.0, 0.42, 0.226666666667, 0.42},
     0.86,
     16},
    {{{"Output Stuck At", 0.353333333333},
      {"Offset (> 8mV)", 0.106666666667},
      {"Mixed", 0.0},
      {"Clock value", 0.293333333333},
      {"No deviations", 0.246666666667}},
     {0.0, 0.42, 0.226666666667, 0.42},
     0.86,
     16}};

/// The golden corpus's tolerance: one class carries ~5% of the weight.
constexpr double kGoldenTolerance = 5e-3;

/// Runs the golden corpus's campaign on the workload's evaluation path and
/// solver; returns the classes evaluated and clears `ok` on any drift.
std::size_t check_golden(const CampaignConfig& workload, bool& ok) {
  CampaignConfig config;
  config.macro_selection = "comparator";
  config.defect_count = 20000;
  config.envelope_samples = 4;
  config.max_classes = 16;
  config.seed = 19950307;
  config.batch = workload.batch;
  config.solver = workload.solver;
  const GlobalResult r = flashadc::run_campaign(config);
  const MacroCampaignResult& m = r.macros.front();
  auto drift = [&](const char* what, double want, double got) {
    if (std::fabs(want - got) <= kGoldenTolerance) return;
    std::fprintf(stderr, "golden corpus drift: %s expected %.6f got %.6f\n",
                 what, want, got);
    ok = false;
  };
  for (const bool noncat : {false, true}) {
    const GoldenPopulation& g = kGolden[noncat ? 1 : 0];
    const auto voltage = m.voltage_signature_fractions(noncat);
    for (int s = 0; s < macro::kVoltageSignatureCount; ++s) {
      const std::string name = macro::voltage_signature_name(
          static_cast<macro::VoltageSignature>(s));
      const auto it = std::find_if(
          g.voltage.begin(), g.voltage.end(),
          [&](const auto& entry) { return name == entry.first; });
      if (it == g.voltage.end()) {
        std::fprintf(stderr, "golden corpus has no signature '%s'\n",
                     name.c_str());
        ok = false;
      } else {
        drift(it->first, it->second, voltage[s]);
      }
    }
    const auto current = m.current_signature_fractions(noncat);
    for (std::size_t i = 0; i < 4; ++i)
      drift("current signature", g.current[i], current[i]);
    drift("coverage", g.coverage, m.coverage(noncat));
    const auto& outcomes = noncat ? m.noncatastrophic : m.catastrophic;
    if (outcomes.size() != g.classes) {
      std::fprintf(stderr, "golden corpus drift: %zu classes, expected %zu\n",
                   outcomes.size(), g.classes);
      ok = false;
    }
  }
  return m.catastrophic.size();
}

// ---------------------------------------------------------------------
// Layer probes for the traced run.

/// Defect layer: sprinkle + collapse of every macro at the campaign's
/// seeds. Returns its seconds; clears `ok` if the classes differ from the
/// ones the campaign evaluated.
double probe_defects(const CampaignConfig& config,
                     const std::vector<SprinkledMacro>& cells,
                     const GlobalResult& campaign, bool& ok) {
  double seconds = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const macro::MacroCell& cell = cells[i].cell;
    defect::CampaignOptions opt;
    opt.statistics = config.statistics;
    opt.defect_count = config.defect_count;
    opt.seed = config.seed + cells[i].seed_offset;
    opt.vdd_net = cell.layout.name() == "clockgen" ||
                          cell.layout.name() == "decoder"
                      ? "vddd"
                      : "vdda";
    const Clock::time_point t0 = Clock::now();
    const defect::CampaignResult result = defect::run_campaign(cell.layout, opt);
    seconds += seconds_since(t0);
    const auto& want = campaign.macros[i].defects.classes;
    if (result.classes.size() != want.size() ||
        (!want.empty() && result.classes.front().count != want.front().count)) {
      std::fprintf(stderr, "defect probe of %s differs from the campaign\n",
                   cell.name.c_str());
      ok = false;
    }
  }
  return seconds;
}

/// Solver time of one fault class, split by phase (seconds).
struct ClassPhases {
  double assembly = 0.0;  // device evaluation + MNA assembly
  double factor = 0.0;
  double solve = 0.0;
  double total() const { return assembly + factor + solve; }
};

void add_phases(ClassPhases& c, const spice::PhaseTimes& p) {
  c.assembly += p.device_eval_seconds + p.assembly_seconds;
  c.factor += p.factor_seconds;
  c.solve += p.solve_seconds;
}

/// Scalar path: every transient the campaign runs for one class (each
/// pass, model variant and decision-grid point) through spice::transient
/// with its phase clock on.
ClassPhases probe_scalar_class(const CampaignConfig& config,
                               const macro::MacroCell& cell,
                               const fault::FaultClass& cls) {
  fault::FaultModelOptions model = config.fault_models;
  model.vdd_net = "vdda";
  model.new_device_model = flashadc::nmos_model();
  const bool bank = config.macro_selection == "bank";
  const flashadc::BankOptions bank_opt = bank_options(config);
  spice::TranOptions tran = bank ? flashadc::bank_tran_options()
                                 : flashadc::comparator_tran_options();
  tran.solver = config.solver;
  tran.collect_phase_times = true;
  const int slice =
      bank ? flashadc::bank_observed_slice(bank_opt, cls.representative) : 0;

  ClassPhases phases;
  for (const bool noncat : {false, true}) {
    if (noncat && (!config.with_noncatastrophic ||
                   !fault::supports_noncatastrophic(cls.representative)))
      continue;
    const int variants = fault::model_variant_count(cls.representative);
    for (int variant = 0; variant < variants; ++variant) {
      const spice::Netlist faulty = fault::apply_fault(
          cell.netlist, cls.representative, model, variant, noncat);
      for (const double delta_v : flashadc::kDecisionGrid) {
        const spice::Netlist bench =
            bank ? flashadc::instantiate_bank_bench(faulty, bank_opt, slice,
                                                    delta_v)
                 : flashadc::instantiate_comparator_bench(faulty, delta_v);
        try {
          add_phases(phases, spice::transient(bench, tran).stats().phases);
        } catch (const util::ConvergenceError&) {
          // The campaign records a non-converging run; nothing to time.
        }
      }
    }
  }
  return phases;
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string journal;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=full|bank --seed=N --seconds=S "
               "--trace=0|1 --journal=PATH\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      a.workload = v;
      have_workload = true;
    } else if (const char* v = value("--seed=")) {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage(argv[0]);
    } else if (const char* v = value("--seconds=")) {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0)) usage(argv[0]);
    } else if (const char* v = value("--trace=")) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage(argv[0]);
      a.trace = v[0] == '1';
    } else if (const char* v = value("--journal=")) {
      a.journal = v;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload || a.journal.empty()) usage(argv[0]);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  util::ThreadPool::set_global_thread_count(1);
  CampaignConfig config;
  try {
    config = workload_config(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
  }
  // Set-up runs keep only shard max_classes of max_classes + 1, which owns
  // no class: everything before the first class evaluation still runs.
  CampaignConfig setup_config = config;
  setup_config.resilience.shard_count = config.max_classes + 1;
  setup_config.resilience.shard_index = config.max_classes;
  CampaignConfig other_path = config;
  other_path.batch = 0;

  bool ok = true;
  std::size_t attempted = 0, failed = 0;

  // A set-up run precedes every full-size campaign.
  StageClock setup_clock(setup_config, args.journal);
  StageClock campaign_clock(config, args.journal);
  GlobalResult reference;
  std::vector<std::string> reference_lines;
  std::size_t runs = 0;
  const double window = args.trace ? 0.5 * args.seconds : args.seconds;
  const Clock::time_point start = Clock::now();
  do {
    const GlobalResult capped = setup_clock.run(ok);
    failed += check_result(capped, setup_config, ok);

    GlobalResult r = campaign_clock.run(ok);
    std::fprintf(stderr,
                 "run %zu: campaign %.4f s (scaled %.4f), set-up %.4f s "
                 "(scaled %.4f)\n",
                 ++runs, campaign_clock.last_wall(), campaign_clock.last_scaled(),
                 setup_clock.last_wall(), setup_clock.last_scaled());
    std::vector<std::string> lines = verdict_lines(r);
    attempted += class_count(r);
    if (reference_lines.empty()) {
      failed += check_result(r, config, ok);
      reference_lines = std::move(lines);
      reference = std::move(r);
    } else {
      failed += mismatches(reference_lines, lines, "repeat");
    }
  } while (seconds_since(start) < window || runs < kMinRuns);
  std::remove(args.journal.c_str());

  // The batched path must reach identical verdicts, and the pinned
  // campaign must reproduce the golden corpus.
  {
    const GlobalResult r = flashadc::run_campaign(other_path);
    attempted += class_count(r);
    failed += check_result(r, other_path, ok);
    failed += mismatches(reference_lines, verdict_lines(r), "cross-path");
  }
  attempted += check_golden(config, ok);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"campaign_s", campaign_clock.total(), "s"},
               {"setup_s", setup_clock.total(), "s"}};
  } else {
    const auto cells = workload_macros(config);
    const MacroCampaignResult& bench_macro = reference.macros.front();
    std::vector<double> defect_ms, assembly_ms, factor_ms, solve_ms,
        solver_ms;
    const Clock::time_point probe_start = Clock::now();
    do {
      defect_ms.push_back(probe_defects(config, cells, reference, ok) * 1e3);
      const std::size_t n =
          std::min(bench_macro.catastrophic.size(), kProbeClasses);
      for (std::size_t i = 0; i < n; ++i) {
        const ClassPhases p = probe_scalar_class(
            config, cells.front().cell, bench_macro.catastrophic[i].cls);
        assembly_ms.push_back(p.assembly * 1e3);
        factor_ms.push_back(p.factor * 1e3);
        solve_ms.push_back(p.solve * 1e3);
        solver_ms.push_back(p.total() * 1e3);
      }
    } while (seconds_since(probe_start) < window);
    // Marginal cost of one fault class over the campaign's fixed part, in
    // reference-speed ms like the end-to-end clocks it comes from; the
    // probes above are plain wall-time medians.
    const double class_ms =
        (campaign_clock.total() - setup_clock.total()) /
        static_cast<double>(class_count(reference)) * 1e3;
    metrics = {
        {"class_eval_ms", class_ms, "ms"},
        {"defect_ms", median(defect_ms), "ms"},
        {"solver_ms", median(solver_ms), "ms"},
        {"assembly_ms", median(assembly_ms), "ms"},
        {"factor_ms", median(factor_ms), "ms"},
        {"solve_ms", median(solve_ms), "ms"},
    };
  }
  print_result(ok && failed == 0, attempted, failed, metrics);
  return 0;
}

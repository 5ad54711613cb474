// Microbenchmarks of the computational kernels: MNA assembly + LU
// solve, one transient Newton iteration and one transient step, DC
// operating points (the comparator's, the ladder's, and every drive
// state of the clock generator's and decoder's DC benches), clocked
// transients, defect analysis, a 60k-spot defect sprinkle (comparator,
// bank-8), DefectAnalyzer construction (bank-64, chip-64) and the
// behavioral missing-code test. These bound how large a campaign a
// given time budget affords.
//
//   bench_engine [--smoke] [--json=FILE | --json-root]
//
// Each kernel runs in blocks of a fixed repetition count; the reported
// time per call is the minimum of three timed blocks after one untimed
// warm-up block (bench_common's min_of_k_seconds). --smoke shrinks the
// blocks to a few calls each. The sprinkle kernels run on one thread
// whatever --threads says.
//
// JSON result payload (dot-bench-v1): {"<kernel>": seconds per call, ...}
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "defect/analyze.hpp"
#include "defect/simulate.hpp"
#include "defect/statistics.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/behavioral.hpp"
#include "flashadc/chip.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/comparator_sim.hpp"
#include "flashadc/dc_bench.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "numeric/lu.hpp"
#include "spice/dc.hpp"
#include "spice/transient.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace dot;

/// Consumes kernel results so the optimizer cannot drop the calls.
volatile double g_sink = 0.0;

struct Kernel {
  std::string name;
  int reps = 1;  ///< Calls per timed block (full size).
  std::function<void()> call;
  unsigned threads = 0;  ///< Pool size while timed; 0 keeps --threads.
};

/// One 60k-spot sprinkle and collapse (the --quick defect count) over a
/// prebuilt analyzer, on one thread.
Kernel defect_sprinkle(const std::string& macro, layout::CellLayout layout) {
  const auto cell =
      std::make_shared<const layout::CellLayout>(std::move(layout));
  const auto analyzer = std::make_shared<const defect::DefectAnalyzer>(
      *cell, defect::AnalyzerOptions{.vdd_net = "vdda"});
  defect::CampaignOptions options;
  options.defect_count = 60000;
  options.vdd_net = "vdda";
  return {"defect_sprinkle_" + macro, 20,
          [cell, analyzer, options] {
            g_sink = g_sink + static_cast<double>(
                                  defect::run_campaign(*analyzer, options)
                                      .faults_extracted);
          },
          1};
}

/// DefectAnalyzer construction (spatial index, net lists, harmless
/// sizes) over a prebuilt layout.
Kernel defect_analyzer_build(const std::string& macro,
                             layout::CellLayout layout) {
  const auto cell =
      std::make_shared<const layout::CellLayout>(std::move(layout));
  return {"defect_analyzer_build_" + macro, 20, [cell] {
            const defect::DefectAnalyzer analyzer(*cell, {.vdd_net = "vdda"});
            g_sink = g_sink +
                     analyzer.harmless_below(defect::DefectType::kExtraMetal1);
          }};
}

/// solve_dc over every drive state of a fault-free DC macro through its
/// DcContext (golden map and warm starts), as a DC campaign solves one
/// class.
Kernel dc_bench(const std::string& macro, int reps, flashadc::DcBench bench,
                spice::Netlist netlist) {
  const auto context = std::make_shared<const flashadc::DcContext>(
      flashadc::make_dc_context(bench, netlist));
  return {"dc_bench_" + macro, reps, [bench, netlist, context] {
            flashadc::solve_dc(bench, netlist, context.get(),
                               [](int, const spice::Netlist&,
                                  const spice::MnaMap&,
                                  const std::vector<double>& x) {
                                 g_sink = g_sink + x[0];
                               });
          }};
}

Kernel lu_solve(std::size_t n, int reps) {
  util::Rng rng(1);
  numeric::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 10.0;
  return {"lu_solve_" + std::to_string(n), reps, [a] {
            const numeric::DenseLu lu(a);
            g_sink = g_sink + lu.solve(std::vector<double>(a.rows(), 1.0))[0];
          }};
}

/// One Newton iteration of a transient at its mid-run state: assemble
/// (MOSFET evaluation + stamp-program replay), refactor against the
/// cached symbolic, solve. The iterate and the previous time point stay
/// fixed, so every call after the first is a steady-state iteration.
struct NewtonIteration {
  spice::Netlist netlist;
  spice::MnaMap map;
  spice::MosKernel mos;
  spice::SolverContext solver;
  spice::StampOptions stamp;
  std::vector<double> x, x_prev, b, dx;

  NewtonIteration(spice::Netlist bench, const spice::TranOptions& tran)
      : netlist(std::move(bench)),
        map(netlist),
        mos(netlist, map),
        solver(tran.solver) {
    const spice::TranResult run = spice::transient(netlist, tran);
    const std::size_t mid = run.steps() / 2;
    x = run.state(mid);
    x_prev = run.state(mid - 1);
    stamp.mode = spice::AnalysisMode::kTransient;
    stamp.time = run.time(mid);
    stamp.dt = run.time(mid) - run.time(mid - 1);
    stamp.gshunt = tran.newton.gshunt;
    stamp.mos = &mos;
  }
  double operator()() {
    spice::assemble_mna(netlist, map, x, x_prev, stamp, solver.assembler(),
                        b);
    if (!solver.factor(map.size())) return 0.0;
    solver.solve(b, dx);
    return dx[0];
  }
};

/// One accepted transient step; a finished run restarts from the same
/// t = 0 state on a fresh stepper (its set-up amortized over the run).
struct TransientStep {
  spice::Netlist netlist;
  spice::TranOptions tran;
  std::optional<spice::TranStepper> stepper;
  std::vector<double> x0;

  TransientStep(spice::Netlist bench, const spice::TranOptions& options)
      : netlist(std::move(bench)), tran(options) {
    x0 = spice::TranStepper(netlist, tran).solve_dc().x;
  }
  void operator()() {
    if (!stepper || stepper->done()) {
      stepper.emplace(netlist, tran);
      stepper->start(x0);
    }
    stepper->step();
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("bench_engine: computational kernel timings");
  const bench::WallTimer timer;

  const auto comparator = flashadc::build_comparator_netlist();
  const auto comparator_bench =
      flashadc::instantiate_comparator_bench(comparator, 0.1);
  const spice::MnaMap comparator_map(comparator_bench);
  const auto ladder = flashadc::build_ladder_netlist();
  const auto cell = flashadc::build_comparator_layout();
  const defect::DefectAnalyzer analyzer(cell, {.vdd_net = "vdda"});
  const defect::DefectStatistics stats;
  const defect::DefectSampler sample_defect(stats, cell.bounding_box());
  util::Rng defect_rng(7);
  flashadc::FlashAdcModel adc;
  adc.set_comparator(100, {flashadc::ComparatorMode::kOffset, 0.02});
  flashadc::BankOptions bank8;
  bank8.size = 8;
  flashadc::BankOptions bank64;
  bank64.size = 64;
  flashadc::ChipOptions chip64;
  chip64.slices = 64;
  const auto newton_comparator = std::make_shared<NewtonIteration>(
      comparator_bench, flashadc::comparator_tran_options());
  const auto newton_bank8 = std::make_shared<NewtonIteration>(
      flashadc::instantiate_bank_bench(flashadc::build_bank_netlist(bank8),
                                       bank8, bank8.size / 2, 0.01),
      flashadc::bank_tran_options());
  const auto step_comparator = std::make_shared<TransientStep>(
      comparator_bench, flashadc::comparator_tran_options());

  const std::vector<Kernel> kernels = {
      lu_solve(16, 20000),
      lu_solve(40, 2000),
      lu_solve(128, 50),
      {"newton_iteration_comparator", 20000,
       [&] { g_sink = g_sink + (*newton_comparator)(); }},
      {"newton_iteration_bank8", 4000,
       [&] { g_sink = g_sink + (*newton_bank8)(); }},
      {"transient_step_comparator", 5000, [&] { (*step_comparator)(); }},
      {"comparator_dc", 400,
       [&] {
         g_sink = g_sink + spice::dc_operating_point(comparator_bench,
                                                     comparator_map)
                               .x[0];
       }},
      {"comparator_transient", 10,
       [&] {
         g_sink = g_sink + (flashadc::simulate_comparator(comparator, 0.009)
                                    .converged
                                ? 1.0
                                : 0.0);
       }},
      {"ladder_dc", 100,
       [&] { g_sink = g_sink + flashadc::solve_ladder(ladder).taps[0]; }},
      dc_bench("clockgen", 2000, flashadc::clockgen_dc_bench(),
               flashadc::build_clockgen_netlist()),
      dc_bench("decoder", 1000, flashadc::decoder_dc_bench(),
               flashadc::build_decoder_netlist()),
      {"defect_analysis", 100000,
       [&] {
         const auto defect = sample_defect(defect_rng);
         g_sink = g_sink + (analyzer.analyze(defect) ? 1.0 : 0.0);
       }},
      defect_sprinkle("comparator", cell),
      defect_sprinkle("bank8", flashadc::build_bank_layout(bank8)),
      defect_analyzer_build("bank64", flashadc::build_bank_layout(bank64)),
      defect_analyzer_build("chip64", flashadc::build_chip_layout(chip64)),
      {"missing_code_test", 20,
       [&] { g_sink = g_sink + (flashadc::has_missing_code(adc) ? 1.0 : 0.0); }},
  };

  util::TextTable table({"kernel", "calls per block", "time per call"});
  std::string json = "{";
  for (const auto& k : kernels) {
    const int reps = args.smoke ? std::max(1, k.reps / 1000) : k.reps;
    if (k.threads != 0) util::ThreadPool::set_global_thread_count(k.threads);
    const double seconds = bench::min_of_k_seconds([&] {
                             for (int r = 0; r < reps; ++r) k.call();
                           }) /
                           reps;
    if (k.threads != 0) util::ThreadPool::set_global_thread_count(args.threads);
    table.add_row({k.name, std::to_string(reps), util::si(seconds, "s")});
    char entry[96];
    std::snprintf(entry, sizeof entry, "%s\"%s\": %.6e",
                  json.size() > 1 ? ", " : "", k.name.c_str(), seconds);
    json += entry;
  }
  json += "}";
  std::printf("%s", table.str().c_str());
  bench::report_run(args, timer, 0, json);
  return 0;
}

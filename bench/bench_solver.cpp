// Dense-vs-sparse linear-solver microbenchmark.
//
// Sweeps MNA system size over two netlist families shaped like the
// case-study macros -- a resistive reference ladder and a MOS-loaded
// comparator-bank-style array -- and times warm-started operating-point
// solves on each LU, forced through SolverOptions::sparse_threshold
// (SIZE_MAX: dense, 0: sparse; both assemble the same CSR system).
// Reports the per-solve wall time, the dense/sparse agreement, and the
// measured crossover size that informs SolverOptions::sparse_threshold.
//
//   bench_solver [--quick] [--json=FILE | --json-root]
//
// JSON result payload (dot-bench-v1):
//   {"sizes": [{"family": "...", "n": ..., "dense_ms": ..., "sparse_ms": ...,
//               "speedup": ..., "max_delta": ...}, ...],
//    "crossover_n": <smallest n where sparse wins on both families>}
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flashadc/tech.hpp"
#include "spice/dc.hpp"
#include "spice/solver.hpp"
#include "util/table.hpp"

namespace {

using dot::spice::MnaMap;
using dot::spice::Netlist;
using dot::spice::SolverContext;
using dot::spice::SolverOptions;
using dot::spice::SourceSpec;

/// Reference-ladder-style network: a resistor string with periodic
/// bridging resistors (the fine/coarse structure), driven at the top.
/// Unknown count ~= sections + 1.
Netlist make_ladder_family(int sections) {
  Netlist n;
  auto node = [](int i) { return "n" + std::to_string(i); };
  n.add_vsource("VTOP", node(sections), "0", SourceSpec::dc(3.3));
  for (int i = 0; i < sections; ++i)
    n.add_resistor("R" + std::to_string(i), node(i), node(i + 1),
                   50.0 + (i % 7));
  for (int i = 0; i + 4 <= sections; i += 4)
    n.add_resistor("RB" + std::to_string(i), node(i), node(i + 4), 400.0);
  n.add_resistor("RBOT", node(0), "0", 25.0);
  return n;
}

/// Comparator-bank-style network: a tap chain biasing rows of resistor-
/// loaded NMOS stages from a shared supply -- nonlinear, so the Newton
/// loop exercises repeated refactorization. Unknown count ~= 2*cells.
Netlist make_mos_family(int cells) {
  Netlist n;
  const auto model = dot::flashadc::nmos_model();
  n.add_vsource("VDD", "vdd", "0", SourceSpec::dc(3.3));
  n.add_vsource("VREF", "tap0", "0", SourceSpec::dc(1.6));
  for (int i = 0; i < cells; ++i) {
    const std::string tap = "tap" + std::to_string(i);
    const std::string tap_next = "tap" + std::to_string(i + 1);
    const std::string out = "out" + std::to_string(i);
    n.add_resistor("RT" + std::to_string(i), tap, tap_next, 200.0);
    n.add_resistor("RL" + std::to_string(i), "vdd", out, 8000.0);
    n.add_mosfet("M" + std::to_string(i), dot::spice::MosType::kNmos, out,
                 tap, "0", "0", 4e-6, 1e-6, model);
  }
  n.add_resistor("RTEND", "tap" + std::to_string(cells), "0", 100000.0);
  return n;
}

struct Sample {
  std::string family;
  std::size_t n = 0;
  double dense_ms = 0.0;
  double sparse_ms = 0.0;
  double max_delta = 0.0;
  bool converged = false;
};

/// Times `reps` warm-started operating-point solves (the fault-campaign
/// access pattern: golden map + warm start + persistent solver context).
double time_solves(const Netlist& netlist, const MnaMap& map,
                   const std::vector<double>& golden, SolverContext& ctx,
                   int reps, std::vector<double>& x_out) {
  auto block = [&] {
    for (int r = 0; r < reps; ++r) {
      const auto result =
          dot::spice::dc_operating_point(netlist, map, {}, &golden, &ctx);
      x_out = result.x;
    }
  };
  // The first solve in a fresh context pays one-off costs the campaign
  // access pattern never sees again (symbolic analysis, factor
  // allocation, first-touch faults), so a single cold measurement
  // overstates the small-n points badly. Warm up once untimed, then
  // take the minimum of three timed blocks.
  return dot::bench::min_of_k_seconds(block, /*warmup=*/1, /*k=*/3) * 1000.0 /
         reps;
}

Sample run_case(const char* family, const Netlist& netlist,
                const SolverOptions& base, int reps) {
  const MnaMap map(netlist);
  Sample s;
  s.family = family;
  s.n = map.size();

  SolverOptions dense_opts = base;
  dense_opts.sparse_threshold = SIZE_MAX;
  SolverOptions sparse_opts = base;
  sparse_opts.sparse_threshold = 0;

  // Golden solve (establishes the warm start, like a campaign context).
  SolverContext golden_ctx(dense_opts);
  const auto golden =
      dot::spice::dc_operating_point(netlist, map, {}, nullptr, &golden_ctx);

  SolverContext dense_ctx(dense_opts);
  SolverContext sparse_ctx(sparse_opts);
  std::vector<double> x_dense, x_sparse;
  s.dense_ms =
      time_solves(netlist, map, golden.x, dense_ctx, reps, x_dense);
  s.sparse_ms =
      time_solves(netlist, map, golden.x, sparse_ctx, reps, x_sparse);
  for (std::size_t i = 0; i < x_dense.size(); ++i)
    s.max_delta = std::max(s.max_delta, std::fabs(x_dense[i] - x_sparse[i]));
  s.converged = golden.converged;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = dot::bench::BenchArgs::parse(argc, argv, 0, 0);
  const bool quick = args.config.defect_count == 60000;  // --quick preset
  dot::bench::print_header(
      "bench_solver: dense vs sparse MNA factorization crossover");

  std::vector<int> ladder_sections =
      quick ? std::vector<int>{8, 32, 64, 128}
            : std::vector<int>{8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384};
  std::vector<int> mos_cells = quick ? std::vector<int>{4, 16, 32, 64}
                                     : std::vector<int>{4, 8, 12, 16, 24, 32,
                                                        48, 64, 96, 128, 192};

  const dot::bench::WallTimer timer;
  std::vector<Sample> samples;
  for (int sections : ladder_sections) {
    const int reps = std::max(4, 2048 / (sections + 1));
    samples.push_back(run_case("ladder", make_ladder_family(sections),
                               args.config.solver, reps));
  }
  for (int cells : mos_cells) {
    const int reps = std::max(2, 512 / (cells + 1));
    samples.push_back(
        run_case("mos", make_mos_family(cells), args.config.solver, reps));
  }

  dot::util::TextTable table(
      {"family", "n", "dense ms", "sparse ms", "speedup", "max |dx|"});
  std::size_t total = 0;
  bool all_converged = true;
  double worst_delta = 0.0;
  // Crossover: smallest n from which the sparse path wins at every
  // larger n of both families (the largest per-family crossover).
  std::size_t crossover = 0;
  for (const auto& s : samples) {
    char dense_ms[32], sparse_ms[32], speedup[32], delta[32];
    std::snprintf(dense_ms, sizeof dense_ms, "%.3f", s.dense_ms);
    std::snprintf(sparse_ms, sizeof sparse_ms, "%.3f", s.sparse_ms);
    std::snprintf(speedup, sizeof speedup, "%.2fx",
                  s.sparse_ms > 0.0 ? s.dense_ms / s.sparse_ms : 0.0);
    std::snprintf(delta, sizeof delta, "%.2e", s.max_delta);
    table.add_row({s.family, std::to_string(s.n), dense_ms, sparse_ms,
                   speedup, delta});
    total += 1;
    all_converged = all_converged && s.converged;
    worst_delta = std::max(worst_delta, s.max_delta);
  }
  for (const char* family : {"ladder", "mos"}) {
    std::size_t family_crossover = 0;
    for (const auto& s : samples) {
      if (s.family != family) continue;
      bool wins_from_here = true;
      for (const auto& t : samples)
        if (t.family == s.family && t.n >= s.n && t.sparse_ms >= t.dense_ms)
          wins_from_here = false;
      if (wins_from_here && (family_crossover == 0 || s.n < family_crossover))
        family_crossover = s.n;
    }
    // A family where sparse never settles into winning has no crossover.
    if (family_crossover == 0) family_crossover = samples.back().n + 1;
    crossover = std::max(crossover, family_crossover);
  }
  std::printf("%s", table.str().c_str());
  std::printf("sparse wins for n >= %zu | all converged: %s | worst "
              "dense-sparse delta %.2e\n",
              crossover, all_converged ? "yes" : "NO", worst_delta);

  std::ostringstream json;
  json << "{\"sizes\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    json << (i ? ", " : "") << "{\"family\": \"" << s.family
         << "\", \"n\": " << s.n << ", \"dense_ms\": " << s.dense_ms
         << ", \"sparse_ms\": " << s.sparse_ms << ", \"speedup\": "
         << (s.sparse_ms > 0.0 ? s.dense_ms / s.sparse_ms : 0.0)
         << ", \"max_delta\": " << s.max_delta << "}";
  }
  json << "], \"crossover_n\": " << crossover << "}";
  dot::bench::report_run(args, timer, total, json.str());
  return all_converged && worst_delta < 1e-6 ? 0 : 1;
}

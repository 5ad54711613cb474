// Sparse-solver scaling on the flat comparator-bank macro.
//
// Sweeps the column height over {2, 4, 8, 16, 32, 64} slices, runs the
// bank bench's two-cycle transient at each size, and reports how the
// MNA solve scales: unknown count and wall-clock per Newton solve. This
// is the measurement behind SolverOptions::sparse_threshold staying
// honest as the flat-bank netlists grow far past the single-macro
// sizes.
//
//   bench_bank [--quick|--smoke] [--json=FILE | --json-root]
//
// --smoke shrinks the sweep to {2, 4, 8} for CI.
//
// JSON result payload (dot-bench-v1):
//   {"sizes": [{"size": ..., "unknowns": ..., "sparse": ...,
//               "newton_iterations": ..., "wall_ms": ...,
//               "ms_per_newton": ...}, ...]}
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/tech.hpp"
#include "spice/transient.hpp"

namespace {

using dot::bench::WallTimer;
using dot::flashadc::BankOptions;
using dot::spice::TranOptions;
using dot::spice::TranStats;

struct Sample {
  int size = 0;
  std::size_t unknowns = 0;
  bool sparse = false;
  std::size_t newton_iterations = 0;
  double wall_ms = 0.0;  ///< Per transient run.
};

/// One bank-bench transient (the campaign's unit of work): middle
/// slice, small negative overdrive -- the hardest nominal decision.
TranStats timed_run(const dot::spice::Netlist& bench,
                    const dot::spice::SolverOptions& solver, int reps,
                    double& wall_ms) {
  TranOptions opt;
  opt.t_stop = 2.0 * dot::flashadc::kCyclePeriod;
  opt.dt = 0.5e-9;
  opt.dt_min = 1e-13;
  opt.newton.max_iterations = 120;
  opt.start_from_dc = false;
  opt.solver = solver;
  TranStats stats;
  const WallTimer timer;
  for (int r = 0; r < reps; ++r)
    stats = dot::spice::transient(bench, opt).stats();
  wall_ms = timer.seconds() * 1000.0 / reps;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dot;
  bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

  bench::print_header(
      "bench_bank: flat-bank transient solve scaling vs column height");

  std::vector<int> sizes = {2, 4, 8, 16, 32, 64};
  if (args.smoke) sizes = {2, 4, 8};
  const int reps = args.smoke ? 1 : 3;

  util::TextTable table({"slices", "unknowns", "solver", "newton iters",
                         "ms/run", "ms/newton"});
  std::vector<Sample> samples;
  const WallTimer total;
  std::size_t total_iters = 0;
  for (const int size : sizes) {
    BankOptions opt;
    opt.size = size;
    opt.dft = args.config.dft;
    const auto netlist = flashadc::build_bank_netlist(opt);
    const auto bench_netlist = flashadc::instantiate_bank_bench(
        netlist, opt, size / 2, -9e-3);

    Sample s;
    s.size = size;
    const TranStats stats =
        timed_run(bench_netlist, args.config.solver, reps, s.wall_ms);
    s.unknowns = stats.unknowns;
    s.sparse = stats.sparse;
    s.newton_iterations = stats.newton_iterations;

    samples.push_back(s);
    total_iters += s.newton_iterations;
    const double ms_per = s.newton_iterations > 0
                              ? s.wall_ms / s.newton_iterations
                              : 0.0;
    table.add_row({std::to_string(size), std::to_string(s.unknowns),
                   s.sparse ? "sparse" : "dense",
                   std::to_string(s.newton_iterations),
                   util::fmt(s.wall_ms, 1), util::fmt(ms_per * 1000.0, 1)});
  }
  std::printf("%s(ms/newton columns are in microseconds)\n\n",
              table.str().c_str());

  std::ostringstream payload;
  payload << "{\"sizes\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (i) payload << ", ";
    char buf[240];
    std::snprintf(
        buf, sizeof buf,
        "{\"size\": %d, \"unknowns\": %zu, \"sparse\": %s, "
        "\"newton_iterations\": %zu, \"wall_ms\": %.3f, "
        "\"ms_per_newton\": %.6f}",
        s.size, s.unknowns, s.sparse ? "true" : "false",
        s.newton_iterations, s.wall_ms,
        s.newton_iterations ? s.wall_ms / s.newton_iterations : 0.0);
    payload << buf;
  }
  payload << "]}";
  bench::report_run(args, total, total_iters, payload.str());
  return 0;
}

// Shared helpers for the bench harnesses.
//
// The paper harnesses (bench_paper: every table and figure of one
// campaign; bench_table1_defects; the ablations) print the measured rows
// next to the paper's published values; results/MANIFEST records the
// arguments behind each committed output. Command-line knobs:
//   --defects=N    defects to sprinkle per macro (default per bench)
//   --envelope=N   Monte-Carlo samples for the good-signature envelope
//   --classes=N    cap on evaluated fault classes (0 = all)
//   --seed=N       master seed
//   --threads=N    worker threads (default: hardware concurrency)
//   --class-timeout-ms=T  wall-clock budget per fault-class attempt
//                  (0 = unlimited, the default); expired classes are
//                  retried under escalating solver aid and reported
//                  unresolved after the retry budget
//   --max-retries=N retries after a failed class attempt (default 3)
//   --phase-times  collect the device-eval/assembly/factor/solve
//                  wall-time breakdown of the transient class
//                  evaluations
//   --json=FILE    machine-readable result + run metadata
//   --json-root    shorthand for --json=BENCH_<bench>.json (the
//                  trajectory files tracked at the repo root)
//   --quick        small preset for smoke runs
//   --smoke        tiny CI preset (also sets BenchArgs::smoke so a
//                  bench can shrink its own sweep, e.g. bench_bank's
//                  size list)
//
// The shared campaign knobs are parsed by flashadc/campaign_args.hpp,
// the same parser the example CLIs use; every numeric value is strict.
// Unknown flags and malformed values are rejected with a usage message
// and exit 2 (a typo'd --defect= must not silently run the 500k
// default). Results are bit-identical at any --threads value; the knob
// only changes wall time.
//
// JSON reports follow the "dot-bench-v1" schema: every file carries
// {"schema": "dot-bench-v1", "bench": <name>, "wall_seconds", "threads",
//  "classes_evaluated", "classes_per_sec"} plus an optional
// bench-specific "result" payload. System size alone picks the linear
// solver (sparse at >= spice::SolverOptions::sparse_threshold unknowns),
// so the envelope names none.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "flashadc/campaign.hpp"
#include "flashadc/campaign_args.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace dot::bench {

struct BenchArgs {
  flashadc::CampaignConfig config;
  std::string bench;      ///< Bench name (binary basename), for reports.
  std::string json_path;  ///< --json=<file>: machine-readable output.
  unsigned threads = 1;   ///< Resolved worker-thread count.
  bool smoke = false;     ///< --smoke: tiny CI preset.

  static void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--json=FILE] [--json-root]\n%s",
                 argv0, flashadc::campaign_usage());
  }

  static std::string basename_of(const char* argv0) {
    std::string name = argv0;
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    return name;
  }

  static BenchArgs parse(int argc, char** argv,
                         std::size_t default_defects = 500000,
                         int default_envelope = 25) {
    BenchArgs args;
    args.bench = basename_of(argv[0]);
    args.config.defect_count = default_defects;
    args.config.envelope_samples = default_envelope;
    // Default cap: classes are likelihood-sorted, so the tail carries
    // little weight; evaluating the top 250 keeps default runs short.
    // Pass --classes=0 for the exhaustive run.
    args.config.max_classes = 250;
    unsigned threads = 0;  // 0 = hardware_concurrency
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      switch (flashadc::parse_campaign_arg(argv[0], arg, args.config,
                                           threads)) {
        case flashadc::ArgParse::kConsumed:
          if (arg == "--smoke") args.smoke = true;
          continue;
        case flashadc::ArgParse::kBad:
          usage(argv[0]);
          std::exit(2);
        case flashadc::ArgParse::kUnknown:
          break;
      }
      if (const char* v = flashadc::arg_value(arg, "--json=")) {
        args.json_path = v;
      } else if (arg == "--json-root") {
        args.json_path = "BENCH_" + args.bench + ".json";
      } else if (arg == "--help") {
        usage(argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                     arg.c_str());
        usage(argv[0]);
        std::exit(2);
      }
    }
    util::ThreadPool::set_global_thread_count(threads);
    args.threads = util::ThreadPool::global_thread_count();
    return args;
  }
};

/// Wall-clock stopwatch started at construction.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Robust micro-benchmark timing: runs `fn` `warmup` times untimed --
/// absorbing cold-start effects (first-touch page faults, lazy pool /
/// allocator initialization, instruction-cache warming) -- then `k`
/// timed repetitions and returns the minimum. The minimum of K is the
/// standard low-noise estimator for a single-process benchmark: every
/// source of interference (scheduling, frequency ramps) only ever adds
/// time, so the fastest observation is the closest to the true cost.
template <typename Fn>
double min_of_k_seconds(Fn&& fn, int warmup = 1, int k = 3) {
  for (int i = 0; i < warmup; ++i) fn();
  double best = -1.0;
  for (int i = 0; i < k; ++i) {
    const WallTimer timer;
    fn();
    const double s = timer.seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

inline void print_header(const char* what) {
  std::printf("====================================================\n");
  std::printf("%s\n", what);
  std::printf("====================================================\n");
}

/// Prints the run metadata line and, with --json, writes the report
/// file: `{"wall_seconds":..., "threads":..., "classes_evaluated":...,
/// "classes_per_sec":..., "result": <payload>}`. `payload_json` must be
/// a complete JSON value (or empty to omit the field).
inline void report_run(const BenchArgs& args, const WallTimer& timer,
                       std::size_t classes_evaluated,
                       const std::string& payload_json = {}) {
  const double wall = timer.seconds();
  const double rate =
      wall > 0.0 ? static_cast<double>(classes_evaluated) / wall : 0.0;
  std::printf("wall %.2f s | threads %u | %zu classes | %.1f classes/s\n",
              wall, args.threads, classes_evaluated, rate);
  if (args.json_path.empty()) return;
  std::ofstream out(args.json_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 args.json_path.c_str());
    std::exit(1);
  }
  char head[320];
  std::snprintf(head, sizeof head,
                "{\"schema\": \"dot-bench-v1\", \"bench\": \"%s\", "
                "\"wall_seconds\": %.6f, \"threads\": %u, "
                "\"classes_evaluated\": %zu, \"classes_per_sec\": %.3f",
                args.bench.c_str(), wall, args.threads, classes_evaluated,
                rate);
  out << head;
  if (!payload_json.empty()) out << ", \"result\": " << payload_json;
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: failed writing %s\n", args.json_path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", args.json_path.c_str());
}

}  // namespace dot::bench

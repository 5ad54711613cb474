// Full-chip campaign throughput: structure-exploiting Schur solve vs
// flat sparse LU.
//
// Runs the chip campaign (N comparator slices + bias generator + clock
// generator + thermometer decoder as ONE netlist) in two arms --
// --solver=sparse (flat baseline) and --solver=schur (block-arrowhead
// path) -- and reports classes/sec for both with the per-run setup cost
// (defect sprinkle, collapsing, envelope, nominal solve) subtracted:
//
//   rate = (N - 1) / (wall_N - wall_1)
//
// where wall_1 is an otherwise-identical run capped at one class.
// Correctness gates, all of which fail the bench with non-zero exit:
//   * both arms must produce bit-identical per-class fault verdicts
//     (voltage signature, current flags, detection, status);
//   * a 2-shard schur run, merged, must match the unsharded schur
//     verdicts (sharding composes with the block solver);
//   * the schur arm must actually have run the block path (nonzero
//     block-factor activity);
//   * the schur arm's throughput must stay above the regression floor
//     (>= 0.4x flat sparse).
//
// The speedup gate is a floor, not a win claim. Measured honestly (see
// EXPERIMENTS.md), the exact-M block path is ~1.4x SLOWER than the
// flat cached-symbolic sparse refactor inside a transient: every MOS
// stamp changes on every Newton iterate, so every block refreshes and
// the arrowhead's extra work -- W = F A^-1 E per block -- buys nothing
// the flat LU doesn't already have. The block path's value here is the
// attributable per-block factor accounting and the reuse/low-rank
// machinery for reuse-rich settings; the floor exists so a pathological
// slowdown (quadratic blow-up, lost symbolic cache) still fails CI.
//
//   bench_chip [--chip-slices=N] [--classes=N] [--smoke]
//              [--json=FILE | --json-root]
//
// JSON result payload (dot-bench-v1):
//   {"slices": N, "classes": N, "sparse_classes_per_sec": ...,
//    "schur_classes_per_sec": ..., "speedup": ...,
//    "block_reuse_rate": ..., "verdicts_match": true|false,
//    "sharded_match": true|false}
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "flashadc/campaign.hpp"

namespace {

using dot::flashadc::CampaignConfig;
using dot::flashadc::EvalStatus;
using dot::flashadc::FaultOutcome;
using dot::flashadc::MacroCampaignResult;
using dot::flashadc::run_chip_campaign;

/// Stable identity of an evaluated (class, pass) pair.
std::string class_key(const FaultOutcome& o) {
  std::string key = dot::fault::fault_kind_name(o.cls.representative.kind);
  for (const auto& net : o.cls.representative.nets) key += '|' + net;
  key += '|' + o.cls.representative.device;
  key += o.non_catastrophic ? "|noncat" : "|cat";
  return key;
}

/// Everything the coverage compilation consumes, rendered for equality.
std::string verdict_of(const FaultOutcome& o) {
  std::string v = dot::macro::voltage_signature_name(o.voltage);
  auto flag = [&](const char* name, bool b) {
    v += '|';
    v += name;
    v += b ? "=1" : "=0";
  };
  flag("ivdd", o.current.ivdd);
  flag("iddq", o.current.iddq);
  flag("iinput", o.current.iinput);
  flag("missing_code", o.detection.missing_code);
  flag("det_ivdd", o.detection.ivdd);
  flag("det_iddq", o.detection.iddq);
  flag("det_iinput", o.detection.iinput);
  flag("unresolved", o.status == EvalStatus::kUnresolved);
  return v;
}

using VerdictMap = std::map<std::string, std::string>;

void collect(const MacroCampaignResult& r, VerdictMap& out) {
  for (const auto& o : r.catastrophic) out[class_key(o)] = verdict_of(o);
  for (const auto& o : r.noncatastrophic) out[class_key(o)] = verdict_of(o);
}

/// Prints the first few differences between two verdict maps.
bool compare_verdicts(const char* what, const VerdictMap& expected,
                      const VerdictMap& got) {
  bool ok = true;
  int shown = 0;
  for (const auto& [key, verdict] : expected) {
    const auto it = got.find(key);
    const std::string* other = it == got.end() ? nullptr : &it->second;
    if (other != nullptr && *other == verdict) continue;
    ok = false;
    if (shown++ < 5)
      std::fprintf(stderr, "%s MISMATCH %s\n  expected %s\n  got      %s\n",
                   what, key.c_str(), verdict.c_str(),
                   other ? other->c_str() : "<missing>");
  }
  if (got.size() != expected.size()) {
    ok = false;
    std::fprintf(stderr, "%s: class-count mismatch: expected %zu, got %zu\n",
                 what, expected.size(), got.size());
  }
  if (ok) std::printf("%s: verdicts bit-identical (%zu keys)\n", what,
                      expected.size());
  return ok;
}

/// Chip campaign wall seconds, the minimum of two runs (so a burst of
/// load from other processes does not decide the floor gate); the
/// result lands in the out-param. Runs on one thread: the
/// setup-subtracted rate assumes the classes are evaluated one after
/// another, and the batched prepass would otherwise spread its chunks
/// over the pool.
double timed_run(CampaignConfig config, std::size_t max_classes,
                 dot::spice::SolverMode mode,
                 MacroCampaignResult* out = nullptr) {
  config.max_classes = max_classes;
  config.solver.mode = mode;
  config.collect_phase_times = false;  // timed arms stay clock-free
  const unsigned threads = dot::util::ThreadPool::global_thread_count();
  dot::util::ThreadPool::set_global_thread_count(1);
  MacroCampaignResult result;
  const double seconds = dot::bench::min_of_k_seconds(
      [&] { result = run_chip_campaign(config); }, /*warmup=*/0, /*k=*/2);
  dot::util::ThreadPool::set_global_thread_count(threads);
  if (out != nullptr) *out = std::move(result);
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  // --chip-slices=N is bench-local; strip it before the shared parser
  // (which rejects unknown flags) sees the argument list.
  int slices = 64;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--chip-slices=", 14) == 0) {
      char* end = nullptr;
      slices = static_cast<int>(std::strtol(argv[i] + 14, &end, 10));
      if (end == argv[i] + 14 || *end != '\0' || slices < 4 || slices > 256) {
        std::fprintf(stderr, "%s: bad --chip-slices value '%s'\n", argv[0],
                     argv[i] + 14);
        return 2;
      }
    } else {
      rest.push_back(argv[i]);
    }
  }
  auto args = dot::bench::BenchArgs::parse(static_cast<int>(rest.size()),
                                           rest.data(), 60000, 4);
  // Chip transients are column-sized; the shared 250-class default
  // would run for hours. --classes=N, --quick and --smoke override.
  if (args.config.max_classes == 250) args.config.max_classes = 12;
  if (args.smoke) {
    slices = 8;
    args.config.max_classes = 6;
  }
  args.config.macro_selection = "chip";
  args.config.chip_slices = slices;
  args.config.with_noncatastrophic = false;
  // Batched evaluation is the production path for column-sized
  // macros, and the only one that aggregates block-factor accounting
  // into the campaign result (gate 3 reads it). Both arms share the
  // setting, so the throughput comparison stays like-for-like.
  if (args.config.batch == 1) args.config.batch = 0;  // auto
  const std::size_t n = args.config.max_classes;
  dot::bench::print_header(
      "bench_chip: full-chip campaign, schur block solve vs flat sparse");
  std::printf("chip: %d slices + biasgen + clockgen + decoder\n", slices);

  const dot::bench::WallTimer timer;

  // Flat sparse baseline arm.
  MacroCampaignResult sparse_result;
  const double sparse_wall_1 =
      timed_run(args.config, 1, dot::spice::SolverMode::kSparse);
  const double sparse_wall_n =
      timed_run(args.config, n, dot::spice::SolverMode::kSparse,
                &sparse_result);
  // Block-arrowhead arm.
  MacroCampaignResult schur_result;
  const double schur_wall_1 =
      timed_run(args.config, 1, dot::spice::SolverMode::kSchur);
  const double schur_wall_n =
      timed_run(args.config, n, dot::spice::SolverMode::kSchur, &schur_result);

  const std::size_t evaluated = sparse_result.catastrophic.size();
  const double sparse_per_class =
      evaluated > 1 ? (sparse_wall_n - sparse_wall_1) /
                          static_cast<double>(evaluated - 1)
                    : 0.0;
  const double schur_per_class =
      evaluated > 1 ? (schur_wall_n - schur_wall_1) /
                          static_cast<double>(evaluated - 1)
                    : 0.0;
  const double sparse_rate =
      sparse_per_class > 0.0 ? 1.0 / sparse_per_class : 0.0;
  const double schur_rate = schur_per_class > 0.0 ? 1.0 / schur_per_class : 0.0;
  const double speedup =
      schur_per_class > 0.0 ? sparse_per_class / schur_per_class : 0.0;

  std::printf("classes %zu | sparse %.2f classes/s | schur %.2f classes/s "
              "| speedup %.2fx\n",
              evaluated, sparse_rate, schur_rate, speedup);
  std::printf("block factors: %zu refreshes | %zu reuses | %zu low-rank | "
              "reuse rate %.3f\n",
              schur_result.block_refreshes, schur_result.block_reuses,
              schur_result.lowrank_updates, schur_result.block_reuse_rate());

  // Gate 1: identical verdicts across the two solver arms.
  VerdictMap sparse_verdicts, schur_verdicts;
  collect(sparse_result, sparse_verdicts);
  collect(schur_result, schur_verdicts);
  const bool verdicts_match =
      compare_verdicts("schur-vs-sparse", sparse_verdicts, schur_verdicts);

  // Gate 2: a 2-shard schur run, merged, matches the unsharded run.
  VerdictMap sharded_verdicts;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    CampaignConfig config = args.config;
    config.resilience.shard_count = 2;
    config.resilience.shard_index = shard;
    MacroCampaignResult shard_result;
    timed_run(config, n, dot::spice::SolverMode::kSchur, &shard_result);
    collect(shard_result, sharded_verdicts);
  }
  const bool sharded_match =
      compare_verdicts("sharded", schur_verdicts, sharded_verdicts);

  // Gate 3: the block path actually ran (a silent flat fallback would
  // pass the equality gates while benchmarking nothing).
  const bool block_path_ran = schur_result.block_refreshes > 0;
  if (!block_path_ran)
    std::fprintf(stderr,
                 "error: schur arm recorded no block-factor activity\n");

  // Gate 4: regression floor. Measured honestly the schur arm sits at
  // 0.50-0.60x of flat sparse (8 -> 256 slices; the block path does
  // strictly more per-iterate work than the flat refactor, see the
  // header comment). The floor is 0.4x -- margin below the measured
  // band, so it catches a pathological slowdown (quadratic blow-up,
  // lost symbolic cache) without tripping on timing noise.
  const bool above_floor = speedup >= 0.4;
  if (!above_floor)
    std::fprintf(stderr,
                 "error: schur arm below the 0.4x regression floor (%.2fx)\n",
                 speedup);

  std::ostringstream json;
  json << "{\"slices\": " << slices << ", \"classes\": " << evaluated
       << ", \"sparse_classes_per_sec\": " << sparse_rate
       << ", \"schur_classes_per_sec\": " << schur_rate
       << ", \"speedup\": " << speedup
       << ", \"block_reuse_rate\": " << schur_result.block_reuse_rate()
       << ", \"verdicts_match\": " << (verdicts_match ? "true" : "false")
       << ", \"sharded_match\": " << (sharded_match ? "true" : "false") << "}";
  dot::bench::report_run(args, timer, evaluated, json.str());
  return verdicts_match && sharded_match && block_path_ran && above_floor ? 0
                                                                          : 1;
}

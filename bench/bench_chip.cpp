// Full-chip campaign throughput on the flat solver.
//
// Runs the chip campaign (N comparator slices + bias generator + clock
// generator + thermometer decoder as ONE netlist) on the flat sparse
// solver (system size picks it at chip size) and reports classes/sec
// with the per-run setup cost (defect sprinkle, collapsing, envelope,
// nominal solve) subtracted:
//
//   rate = (N - 1) / (wall_N - wall_1)
//
// where wall_1 is an otherwise-identical run capped at one class.
// Correctness gate, failing the bench with non-zero exit: a 2-shard
// run, merged, must produce bit-identical per-class fault verdicts
// (voltage signature, current flags, detection, status) to the
// unsharded run.
//
//   bench_chip [--chip-slices=N] [--classes=N] [--smoke]
//              [--json=FILE | --json-root]
//
// JSON result payload (dot-bench-v1):
//   {"slices": N, "classes": N, "classes_per_sec": ...,
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
using dot::flashadc::run_macro_campaign;

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

/// Chip campaign wall seconds of one run; the result lands in the
/// out-param. Runs on one thread: the setup-subtracted rate assumes the
/// classes are evaluated one after another.
double timed_run(CampaignConfig config, std::size_t max_classes,
                 MacroCampaignResult* out = nullptr) {
  config.max_classes = max_classes;
  config.collect_phase_times = false;  // timed runs stay clock-free
  const unsigned threads = dot::util::ThreadPool::global_thread_count();
  dot::util::ThreadPool::set_global_thread_count(1);
  const dot::bench::WallTimer timer;
  MacroCampaignResult result = run_macro_campaign(config, "chip");
  const double seconds = timer.seconds();
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
  const std::size_t n = args.config.max_classes;
  dot::bench::print_header("bench_chip: full-chip campaign throughput");
  std::printf("chip: %d slices + biasgen + clockgen + decoder\n", slices);

  const dot::bench::WallTimer timer;

  MacroCampaignResult result;
  const double wall_1 = timed_run(args.config, 1);
  const double wall_n = timed_run(args.config, n, &result);
  const std::size_t evaluated = result.catastrophic.size();
  const double per_class =
      evaluated > 1 ? (wall_n - wall_1) / static_cast<double>(evaluated - 1)
                    : 0.0;
  const double rate = per_class > 0.0 ? 1.0 / per_class : 0.0;
  std::printf("classes %zu | %.2f classes/s (setup subtracted)\n", evaluated,
              rate);

  // Gate: a 2-shard run, merged, matches the unsharded run.
  VerdictMap verdicts, sharded_verdicts;
  collect(result, verdicts);
  for (std::size_t shard = 0; shard < 2; ++shard) {
    CampaignConfig config = args.config;
    config.resilience.shard_count = 2;
    config.resilience.shard_index = shard;
    MacroCampaignResult shard_result;
    timed_run(config, n, &shard_result);
    collect(shard_result, sharded_verdicts);
  }
  const bool sharded_match =
      compare_verdicts("sharded", verdicts, sharded_verdicts);

  std::ostringstream json;
  json << "{\"slices\": " << slices << ", \"classes\": " << evaluated
       << ", \"classes_per_sec\": " << rate
       << ", \"sharded_match\": " << (sharded_match ? "true" : "false") << "}";
  dot::bench::report_run(args, timer, evaluated, json.str());
  return sharded_match ? 0 : 1;
}

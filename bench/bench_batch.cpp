// Batched vs scalar fault-campaign throughput (comparator macro).
//
// Runs the comparator campaign in two arms -- scalar (--batch=1, the
// default path) and batched (the prepass that runs each class's first
// scalar attempt in chunks of classes) -- and
// reports the classes/sec speedup with the per-run setup cost (defect
// sprinkle, collapsing, envelope, golden solve) subtracted out:
//
//   rate = (N - 1) / (wall_N - wall_1)
//
// where wall_1 is an otherwise-identical run capped at one class.
// Correctness gates, all of which fail the bench with a non-zero exit:
//   * the two arms must produce bit-identical per-class fault verdicts
//     (voltage signature, current flags, detection, status);
//   * a 2-shard batched run, merged, must match the unsharded scalar
//     verdicts (sharding composes with batching);
//   * the batched prepass must actually have evaluated classes;
//   * the batched arm must not be slower than scalar.
//
//   bench_batch [--batch=N|auto] [--classes=N] [--smoke]
//               [--json=FILE | --json-root]
//
// JSON result payload (dot-bench-v1):
//   {"classes": N, "batch": <requested size, 0 = auto>,
//    "scalar_classes_per_sec": ..., "batch_classes_per_sec": ...,
//    "speedup": ..., "batch_evaluated": ...,
//    "verdicts_match": true|false, "sharded_match": true|false}
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>

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

/// One campaign run; returns wall seconds, result via out-param.
double timed_run(CampaignConfig config, std::size_t max_classes,
                 std::size_t batch, MacroCampaignResult* out = nullptr) {
  config.max_classes = max_classes;
  config.batch = batch;
  config.collect_phase_times = false;  // timed arms stay clock-free
  const dot::bench::WallTimer timer;
  auto result = run_macro_campaign(config, "comparator");
  const double seconds = timer.seconds();
  if (out != nullptr) *out = std::move(result);
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = dot::bench::BenchArgs::parse(argc, argv, 60000, 10);
  // This bench's own default sweep is 60 classes (the shared 250-class
  // default would push the scalar arm past a minute); --classes=N,
  // --quick and --smoke still override it.
  if (args.config.max_classes == 250) args.config.max_classes = 60;
  // --batch selects the batched arm's chunk size; the scalar arm is
  // always --batch=1, so the default (1) means "auto" here.
  const std::size_t batch = args.config.batch == 1 ? 0 : args.config.batch;
  const std::size_t n = args.config.max_classes;
  dot::bench::print_header(
      "bench_batch: batched prepass vs scalar fault evaluation");

  const dot::bench::WallTimer timer;

  // Scalar arm.
  MacroCampaignResult scalar_result;
  const double scalar_wall_1 = timed_run(args.config, 1, 1);
  const double scalar_wall_n = timed_run(args.config, n, 1, &scalar_result);
  // Batched arm.
  MacroCampaignResult batch_result;
  const double batch_wall_1 = timed_run(args.config, 1, batch);
  const double batch_wall_n = timed_run(args.config, n, batch, &batch_result);

  const std::size_t evaluated = scalar_result.catastrophic.size();
  const double scalar_per_class =
      evaluated > 1
          ? (scalar_wall_n - scalar_wall_1) / static_cast<double>(evaluated - 1)
          : 0.0;
  const double batch_per_class =
      evaluated > 1
          ? (batch_wall_n - batch_wall_1) / static_cast<double>(evaluated - 1)
          : 0.0;
  const double scalar_rate =
      scalar_per_class > 0.0 ? 1.0 / scalar_per_class : 0.0;
  const double batch_rate = batch_per_class > 0.0 ? 1.0 / batch_per_class : 0.0;
  const double speedup =
      batch_per_class > 0.0 ? scalar_per_class / batch_per_class : 0.0;

  std::printf("classes %zu | scalar %.1f classes/s | batched %.1f classes/s "
              "| speedup %.2fx | batch_evaluated %zu\n",
              evaluated, scalar_rate, batch_rate, speedup,
              batch_result.batch_evaluated);

  // Gate 1: identical verdicts, unsharded.
  VerdictMap scalar_verdicts, batch_verdicts;
  collect(scalar_result, scalar_verdicts);
  collect(batch_result, batch_verdicts);
  const bool verdicts_match =
      compare_verdicts("unsharded", scalar_verdicts, batch_verdicts);

  // Gate 2: a 2-shard batched run, merged, matches the scalar verdicts.
  VerdictMap sharded_verdicts;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    CampaignConfig config = args.config;
    config.resilience.shard_count = 2;
    config.resilience.shard_index = shard;
    MacroCampaignResult shard_result;
    timed_run(config, n, batch, &shard_result);
    collect(shard_result, sharded_verdicts);
  }
  const bool sharded_match =
      compare_verdicts("sharded", scalar_verdicts, sharded_verdicts);

  // Gate 3: the prepass actually ran (a silently-degraded batch path
  // would pass the equality gates while benchmarking nothing).
  const bool prepass_ran = batch_result.batch_evaluated > 0;
  if (!prepass_ran)
    std::fprintf(stderr, "error: batched arm evaluated 0 classes in the "
                         "batched prepass\n");

  // Gate 4: batching must not lose throughput.
  const bool faster = speedup >= 1.0;
  if (!faster)
    std::fprintf(stderr, "error: batched arm slower than scalar (%.2fx)\n",
                 speedup);

  std::ostringstream json;
  json << "{\"classes\": " << evaluated << ", \"batch\": " << batch
       << ", \"scalar_classes_per_sec\": " << scalar_rate
       << ", \"batch_classes_per_sec\": " << batch_rate
       << ", \"speedup\": " << speedup
       << ", \"batch_evaluated\": " << batch_result.batch_evaluated
       << ", \"verdicts_match\": " << (verdicts_match ? "true" : "false")
       << ", \"sharded_match\": " << (sharded_match ? "true" : "false") << "}";
  dot::bench::report_run(args, timer, evaluated, json.str());
  return verdicts_match && sharded_match && prepass_ran && faster ? 0 : 1;
}

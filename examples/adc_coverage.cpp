// The full case study: runs the defect-oriented test path for every
// macro of the 8-bit flash ADC and prints the per-macro and global
// coverage summary (paper sections 3.2-3.3).
//
// Usage: adc_coverage [options]
//   --defects=N           defects to sprinkle per macro (default 250000)
//   --envelope=N          Monte-Carlo samples for the envelope (default 20)
//   --classes=N           cap on evaluated fault classes (0 = all)
//   --seed=N              master seed (default 1995)
//   --threads=N           worker threads (default: hardware concurrency)
//   --shards=N --shard=K  evaluate only shard K of N (K in 0..N-1); the
//                         union of all shards equals the unsharded run
//   --journal=PATH        crash-safe JSONL journal of completed classes
//   --journal-sync=N      journal records per checkpoint flush (default
//                         16; 1 = flush every record)
//   --resume              replay the journal, skipping completed classes
//   --class-timeout-ms=T  wall-clock budget per class attempt (0 = off)
//   --max-retries=N       retries under escalating solver aid (default 3)
//   --phase-times         collect the device-eval/assembly/factor/solve
//                         wall-time breakdown of the transient class
//                         evaluations (reported in the --json output)
//   --macro=NAME          run a single macro campaign instead of the
//                         five-macro flow: comparator | ladder | biasgen
//                         | clockgen | decoder | bank | chip
//                         (default: all)
//   --bank-size=N         comparator-column height for --macro=bank
//                         (2..256, must divide 256; default 64)
//   --chip-slices=N       comparator count for --macro=chip (4..256,
//                         must divide 256 and be a multiple of 4;
//                         default 256)
//   --equivalence         with --macro=bank or --macro=chip: diff the
//                         flat result against the per-comparator
//                         decomposition
//   --json=FILE           write the full campaign report as JSON
//   --quick               small preset for a fast demonstration run
//   --smoke               tiny preset for CI (seconds, not minutes)
//
// SIGINT/SIGTERM drain the campaign at class granularity: the journal
// is flushed, the report is printed/written with an explicit
// "interrupted" marker, and the exit status is 128+signal.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "campaign_args.hpp"
#include "flashadc/campaign.hpp"
#include "flashadc/report.hpp"
#include "util/parallel.hpp"
#include "util/shutdown.hpp"
#include "util/table.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--journal=PATH] [--journal-sync=N] [--resume]\n"
      "          [--equivalence] [--json=FILE]\n%s",
      argv0, dot::examples::campaign_usage());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dot;

  flashadc::CampaignConfig config;
  config.defect_count = 250000;
  config.envelope_samples = 20;
  std::string json_path;
  bool with_equivalence = false;
  unsigned threads = 0;  // 0 = hardware_concurrency
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    switch (examples::parse_campaign_arg(argv[0], arg, config, threads)) {
      case examples::ArgParse::kConsumed:
        continue;
      case examples::ArgParse::kBad:
        usage(argv[0]);
        return 2;
      case examples::ArgParse::kUnknown:
        break;
    }
    if (const char* v = examples::arg_value(arg, "--journal=")) {
      config.resilience.journal_path = v;
    } else if (const char* v = examples::arg_value(arg, "--journal-sync=")) {
      std::uint64_t sync = 0;
      if (!flashadc::parse_whole(v, SIZE_MAX, sync) || sync < 1) {
        std::fprintf(stderr, "%s: bad --journal-sync value '%s'\n", argv[0],
                     v);
        usage(argv[0]);
        return 2;
      }
      config.resilience.checkpoint_block = static_cast<std::size_t>(sync);
    } else if (arg == "--resume") {
      config.resilience.resume = true;
    } else if (arg == "--equivalence") {
      with_equivalence = true;
    } else if (const char* v = examples::arg_value(arg, "--json=")) {
      json_path = v;
    } else if (arg == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (config.resilience.shard_index >= config.resilience.shard_count) {
    std::fprintf(stderr, "%s: --shard=%zu out of range for --shards=%zu\n",
                 argv[0], config.resilience.shard_index,
                 config.resilience.shard_count);
    return 2;
  }
  if (config.resilience.resume && config.resilience.journal_path.empty()) {
    std::fprintf(stderr, "%s: --resume requires --journal=PATH\n", argv[0]);
    return 2;
  }
  if (with_equivalence && config.macro_selection != "bank" &&
      config.macro_selection != "chip") {
    std::fprintf(stderr,
                 "%s: --equivalence requires --macro=bank or --macro=chip\n",
                 argv[0]);
    return 2;
  }
  util::ThreadPool::set_global_thread_count(threads);
  util::arm_shutdown_handler();

  const bool sharded = config.resilience.shard_count > 1;
  const bool single = config.macro_selection != "all" &&
                      !config.macro_selection.empty();
  if (single)
    std::printf("running the defect-oriented test path on macro '%s'\n"
                "(%zu defects%s)...\n\n",
                config.macro_selection.c_str(), config.defect_count,
                sharded ? ", sharded" : "");
  else
    std::printf("running the defect-oriented test path on all five macros\n"
                "(%zu defects per macro%s)...\n\n",
                config.defect_count, sharded ? ", sharded" : "");
  flashadc::GlobalResult global;
  try {
    global = flashadc::run_campaign(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  const bool interrupted = util::shutdown_requested();
  if (interrupted)
    std::printf("*** interrupted (signal %d): partial results below; the "
                "journal holds every completed class ***\n\n",
                util::shutdown_signal());

  util::TextTable table({"macro", "instances", "area um^2", "classes",
                         "coverage %", "current %", "unresolved"});
  for (const auto& m : global.macros) {
    table.add_row({m.macro_name, std::to_string(m.instance_count),
                   util::fmt(m.cell_area, 0),
                   std::to_string(m.defects.classes.size()),
                   util::pct(m.coverage(false)),
                   util::pct(m.current_coverage(false)),
                   std::to_string(m.unresolved_classes())});
  }
  std::printf("%s\n", table.str().c_str());

  const auto& venn = global.venn_catastrophic;
  std::printf("global (catastrophic faults, area-scaled):\n");
  std::printf("  voltage only      %5.1f %%\n", 100.0 * venn.voltage_only);
  std::printf("  voltage + current %5.1f %%\n", 100.0 * venn.both);
  std::printf("  current only      %5.1f %%\n", 100.0 * venn.current_only);
  std::printf("  undetected        %5.1f %%\n", 100.0 * venn.undetected);
  if (venn.unresolved > 0.0)
    std::printf("  unresolved        %5.1f %%\n", 100.0 * venn.unresolved);
  std::printf("  => fault coverage %5.1f %%  (paper: 93.3 %%)\n\n",
              100.0 * venn.detected());

  const auto& noncat = global.venn_noncatastrophic;
  std::printf("global (non-catastrophic): coverage %.1f %% "
              "(paper: 93.1 %%)\n",
              100.0 * noncat.detected());

  if (with_equivalence && !interrupted) {
    std::printf("\ndiffing the flat %s against the per-comparator "
                "decomposition...\n",
                config.macro_selection.c_str());
    macro::EquivalenceReport eq;
    try {
      eq = flashadc::compare_decomposition(config, global.macros.at(0));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 1;
    }
    std::printf("  fault-class weight by locality:\n");
    std::printf("    slice-local  %5.1f %%\n", 100.0 * eq.slice_local_weight());
    std::printf("    shared-net   %5.1f %%\n", 100.0 * eq.shared_weight());
    std::printf("    inter-slice  %5.1f %%  (invisible to the "
                "decomposition)\n",
                100.0 * eq.inter_slice_weight());
    std::printf("    unmappable   %5.1f %%\n", 100.0 * eq.unmappable_weight());
    if (eq.unresolved_weight > 0.0)
      std::printf("    unresolved   %5.1f %%\n",
                  100.0 * eq.unresolved_weight);
    std::printf("  agreement over %zu comparable classes: verdict %.1f %%, "
                "mechanisms %.1f %%, signature %.1f %% "
                "(%zu verdict mismatches)\n",
                eq.comparable_classes, 100.0 * eq.verdict_agreement,
                100.0 * eq.detection_agreement,
                100.0 * eq.signature_agreement, eq.verdict_mismatches);
    std::printf("  coverage: flat macro %.1f %% vs decomposed view %.1f %%\n",
                100.0 * eq.composite_coverage,
                100.0 * eq.decomposed_coverage);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "%s: cannot open %s for writing\n", argv[0],
                   json_path.c_str());
      return 1;
    }
    out << flashadc::to_json(global, interrupted) << '\n';
    out.flush();
    if (!out) {
      std::fprintf(stderr, "%s: failed writing %s\n", argv[0],
                   json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return interrupted ? util::shutdown_exit_status() : 0;
}

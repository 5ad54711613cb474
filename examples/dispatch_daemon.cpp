// Campaign dispatcher daemon: binds a TCP port, farms the campaign's
// shards to connecting dispatch_worker processes, and folds their
// class records into one crash-safe master journal that merge_shards
// (or --report) turns into the coverage report -- bit-identical to an
// uninterrupted single-host run at the same seed.
//
// Usage: dispatch_daemon --shards=N --journal=PATH [campaign knobs]
//   --shards=N            shard count the campaign is split into
//   --journal=PATH        master journal (required; crash-safe JSONL,
//                         pollable mid-campaign with merge_shards)
//   --journal-sync=N      master-journal records per checkpoint flush
//                         (default 16; 1 = flush every record)
//   --resume              resume from an existing master journal
//   --port=N              listen port (default 0 = ephemeral)
//   --port-file=PATH      write the bound port (for scripts using
//                         --port=0)
//   --listen              accept beyond loopback (bind 0.0.0.0)
//   --heartbeat-ms=T      worker heartbeat interval (default 2000);
//                         liveness timeout is 4x this
//   --heartbeat-timeout-ms=T  explicit liveness timeout override
//   --max-reissues=N      speculative re-issues per shard before it is
//                         declared unresolved (default 2)
//   --report=FILE         write the merged JSON report on clean finish
// plus the shared campaign knobs (see adc_coverage) -- these define the
// campaign identity every connecting worker is validated against.
//
// Exit status: 0 clean campaign, 3 when shards ended unresolved after
// the re-issue budget, 128+signal on SIGINT/SIGTERM (journal flushed).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "campaign_args.hpp"
#include "dispatch/dispatcher.hpp"
#include "flashadc/journal.hpp"
#include "flashadc/remote.hpp"
#include "flashadc/report.hpp"
#include "util/shutdown.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --shards=N --journal=PATH\n"
      "          [--journal-sync=N] [--resume] [--port=N]\n"
      "          [--port-file=PATH] [--listen] [--heartbeat-ms=T]\n"
      "          [--heartbeat-timeout-ms=T] [--max-reissues=N]\n"
      "          [--report=FILE]\n%s",
      argv0, dot::examples::campaign_usage());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dot;

  flashadc::CampaignConfig config;
  config.defect_count = 250000;
  config.envelope_samples = 20;
  dispatch::DispatcherConfig dconfig;
  dconfig.shard_count = 0;  // required flag; 0 flags "not given"
  std::string port_file;
  std::string report_path;
  long port = 0;
  bool any_interface = false;
  unsigned threads = 0;  // parsed for parity; the daemon runs no solver
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
    if (const char* v = examples::arg_value(arg, "--shards=")) {
      dconfig.shard_count = std::strtoull(v, nullptr, 10);
    } else if (const char* v = examples::arg_value(arg, "--journal=")) {
      dconfig.journal_path = v;
    } else if (const char* v = examples::arg_value(arg, "--journal-sync=")) {
      char* end = nullptr;
      const long sync = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || sync < 1) {
        std::fprintf(stderr, "%s: bad --journal-sync value '%s'\n", argv[0],
                     v);
        usage(argv[0]);
        return 2;
      }
      dconfig.journal_sync = static_cast<std::size_t>(sync);
    } else if (arg == "--resume") {
      dconfig.resume = true;
    } else if (const char* v = examples::arg_value(arg, "--port=")) {
      char* end = nullptr;
      port = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || port < 0 || port > 65535) {
        std::fprintf(stderr, "%s: bad --port value '%s'\n", argv[0], v);
        usage(argv[0]);
        return 2;
      }
    } else if (const char* v = examples::arg_value(arg, "--port-file=")) {
      port_file = v;
    } else if (arg == "--listen") {
      any_interface = true;
    } else if (const char* v = examples::arg_value(arg, "--heartbeat-ms=")) {
      dconfig.heartbeat_ms = std::atof(v);
    } else if (const char* v =
                   examples::arg_value(arg, "--heartbeat-timeout-ms=")) {
      dconfig.heartbeat_timeout_ms = std::atof(v);
    } else if (const char* v = examples::arg_value(arg, "--max-reissues=")) {
      dconfig.max_reissues = std::atoi(v);
    } else if (const char* v = examples::arg_value(arg, "--report=")) {
      report_path = v;
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
  if (dconfig.shard_count == 0) {
    std::fprintf(stderr, "%s: --shards=N is required\n", argv[0]);
    usage(argv[0]);
    return 2;
  }
  if (dconfig.journal_path.empty()) {
    std::fprintf(stderr, "%s: --journal=PATH is required\n", argv[0]);
    usage(argv[0]);
    return 2;
  }
  util::arm_shutdown_handler();

  int rc = 1;
  try {
    // Resolves the macro selection: an unknown name fails here, before
    // any shard is issued.
    flashadc::fill_dispatcher_identity(config, dconfig);
    dispatch::Dispatcher dispatcher(dconfig,
                                    static_cast<std::uint16_t>(port),
                                    any_interface);
    std::printf("dispatching %zu shards of campaign '%s' on port %u\n",
                dconfig.shard_count, config.macro_selection.c_str(),
                dispatcher.port());
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << dispatcher.port() << '\n';
      out.flush();
      if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                     port_file.c_str());
        return 1;
      }
    }
    rc = dispatcher.run();
    std::printf("%s\n", dispatcher.core().status_json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }

  if (rc == 0 && !report_path.empty()) {
    // The finished master journal is a complete single-shard set; the
    // report merged from it is byte-comparable to a single-host run.
    try {
      const auto global =
          flashadc::merge_shard_journals({dconfig.journal_path});
      std::ofstream out(report_path);
      if (!out) {
        std::fprintf(stderr, "%s: cannot open %s for writing\n", argv[0],
                     report_path.c_str());
        return 1;
      }
      out << flashadc::to_json(global) << '\n';
      out.flush();
      if (!out) {
        std::fprintf(stderr, "%s: failed writing %s\n", argv[0],
                     report_path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", report_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 1;
    }
  }
  return rc;
}

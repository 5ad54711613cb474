// Campaign dispatch worker: connects to a dispatch_daemon, passes the
// campaign-identity handshake, and evaluates assigned shards with the
// ordinary campaign machinery, streaming every journal record back as
// it lands. Launch it with the SAME campaign knobs as the daemon -- a
// mismatched seed, defect budget, solver mode or macro geometry is
// rejected at the handshake by field name.
//
// Usage: dispatch_worker --connect=HOST:PORT [campaign knobs]
//   --connect=HOST:PORT   dispatcher endpoint (bare PORT = loopback)
//   --journal-dir=DIR     directory for the worker's local shard
//                         journals (default ".")
//   --journal-sync=N      local-journal records per checkpoint flush
//                         (default 1: a crashed worker's local journal
//                         is as fresh as its record stream)
// plus the shared campaign knobs (see adc_coverage).
//
// Exit status: 0 when the dispatcher ends the campaign (bye), 4 when
// the handshake is rejected, 1 on a lost connection, 128+signal on
// SIGINT/SIGTERM (the current shard is reported back as failed with
// reason "interrupted" so the dispatcher re-issues it).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign_args.hpp"
#include "dispatch/worker.hpp"
#include "flashadc/journal.hpp"
#include "flashadc/remote.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/shutdown.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect=HOST:PORT\n"
               "          [--journal-dir=DIR] [--journal-sync=N]\n%s",
               argv0, dot::examples::campaign_usage());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dot;

  flashadc::CampaignConfig config;
  config.defect_count = 250000;
  config.envelope_samples = 20;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string journal_dir = ".";
  std::size_t journal_sync = 1;
  unsigned threads = 0;
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
    if (const char* v = examples::arg_value(arg, "--connect=")) {
      if (!examples::parse_endpoint(argv[0], v, host, port)) {
        usage(argv[0]);
        return 2;
      }
    } else if (const char* v = examples::arg_value(arg, "--journal-dir=")) {
      journal_dir = v;
    } else if (const char* v = examples::arg_value(arg, "--journal-sync=")) {
      char* end = nullptr;
      const long sync = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || sync < 1) {
        std::fprintf(stderr, "%s: bad --journal-sync value '%s'\n", argv[0],
                     v);
        usage(argv[0]);
        return 2;
      }
      journal_sync = static_cast<std::size_t>(sync);
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
  if (port == 0) {
    std::fprintf(stderr, "%s: --connect=HOST:PORT is required\n", argv[0]);
    usage(argv[0]);
    return 2;
  }
  util::ThreadPool::set_global_thread_count(threads);
  util::arm_shutdown_handler();

  dispatch::WorkerOptions options;
  options.host = host;
  options.port = port;
  options.runner =
      flashadc::make_campaign_runner(config, journal_dir, journal_sync);

  dispatch::WorkerReport report;
  try {
    options.meta = flashadc::campaign_meta_record(config);
    report = dispatch::run_worker(options);
  } catch (const util::ShardError& e) {
    std::fprintf(stderr, "%s: rejected by dispatcher: %s\n", argv[0],
                 e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
  std::printf("worker done: %zu shards completed, %zu abandoned, "
              "%zu failed%s\n",
              report.shards_completed, report.shards_abandoned,
              report.shards_failed,
              report.interrupted ? " (interrupted)" : "");
  return report.interrupted ? util::shutdown_exit_status() : 0;
}

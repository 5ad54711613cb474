// Shared campaign-knob parsing for the example CLIs.
//
// The dispatch tools (dispatch_daemon / dispatch_worker) must agree
// with adc_coverage on every knob that shapes the campaign identity --
// seed, defect budget, macro selection, solver mode, ... -- because the
// dispatcher validates worker hellos field-by-field against its own
// meta record. Keeping one parser guarantees a worker launched with the
// same flags as the daemon passes the handshake interlock.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "flashadc/campaign.hpp"
#include "spice/solver.hpp"

namespace dot::examples {

/// Returns the value part when `arg` is "<prefix><value>", else nullptr.
inline const char* arg_value(const std::string& arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
}

/// Result of offering one argv entry to the shared parser.
enum class ArgParse {
  kConsumed,  ///< Recognized and applied.
  kUnknown,   ///< Not a shared campaign knob; try the tool's own flags.
  kBad,       ///< Recognized but malformed (diagnostic already printed).
};

/// The usage fragment for the shared knobs (one indented line each).
inline const char* campaign_usage() {
  return "          [--defects=N] [--envelope=N] [--classes=N] [--seed=N]\n"
         "          [--threads=N] [--class-timeout-ms=T] [--max-retries=N]\n"
         "          [--batch=N|auto] [--phase-times] [--macro=NAME]\n"
         "          [--bank-size=N] [--chip-slices=N]\n"
         "          [--solver=auto|dense|sparse] [--quick] [--smoke]\n";
}

/// Offers `arg` to the shared campaign-knob parser. `threads` receives
/// --threads (0 = hardware concurrency). On kBad a diagnostic naming
/// `argv0` was already printed to stderr.
inline ArgParse parse_campaign_arg(const char* argv0, const std::string& arg,
                                   flashadc::CampaignConfig& config,
                                   unsigned& threads) {
  if (const char* v = arg_value(arg, "--defects=")) {
    config.defect_count = std::strtoull(v, nullptr, 10);
  } else if (const char* v = arg_value(arg, "--envelope=")) {
    config.envelope_samples = std::atoi(v);
  } else if (const char* v = arg_value(arg, "--classes=")) {
    config.max_classes = std::strtoull(v, nullptr, 10);
  } else if (const char* v = arg_value(arg, "--seed=")) {
    config.seed = std::strtoull(v, nullptr, 10);
  } else if (const char* v = arg_value(arg, "--threads=")) {
    threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
  } else if (const char* v = arg_value(arg, "--class-timeout-ms=")) {
    config.resilience.class_timeout_ms = std::atof(v);
  } else if (const char* v = arg_value(arg, "--max-retries=")) {
    config.resilience.max_retries = std::atoi(v);
  } else if (const char* v = arg_value(arg, "--batch=")) {
    // "auto" maps to the sentinel 0; anything else must be a whole
    // number, or garbage would silently select auto via strtoull.
    char* end = nullptr;
    config.batch =
        std::strcmp(v, "auto") == 0 ? 0 : std::strtoull(v, &end, 10);
    if (std::strcmp(v, "auto") != 0 && (end == v || *end != '\0')) {
      std::fprintf(stderr, "%s: bad --batch value '%s'\n", argv0, v);
      return ArgParse::kBad;
    }
  } else if (arg == "--phase-times") {
    config.collect_phase_times = true;
  } else if (const char* v = arg_value(arg, "--macro=")) {
    config.macro_selection = v;
  } else if (const char* v = arg_value(arg, "--bank-size=")) {
    // Strict whole-number parse: atoi would silently turn garbage
    // into 0 and surface as a confusing bank-size error much later.
    char* end = nullptr;
    const long size = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || size < 2 || size > 256) {
      std::fprintf(stderr, "%s: bad --bank-size value '%s'\n", argv0, v);
      return ArgParse::kBad;
    }
    config.bank_size = static_cast<int>(size);
  } else if (const char* v = arg_value(arg, "--chip-slices=")) {
    char* end = nullptr;
    const long slices = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || slices < 4 || slices > 256) {
      std::fprintf(stderr, "%s: bad --chip-slices value '%s'\n", argv0, v);
      return ArgParse::kBad;
    }
    config.chip_slices = static_cast<int>(slices);
  } else if (const char* v = arg_value(arg, "--solver=")) {
    try {
      config.solver.mode = spice::parse_solver_mode(v);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv0, e.what());
      return ArgParse::kBad;
    }
  } else if (arg == "--quick") {
    config.defect_count = 50000;
    config.envelope_samples = 8;
    config.max_classes = 30;
  } else if (arg == "--smoke") {
    config.defect_count = 8000;
    config.envelope_samples = 4;
    config.max_classes = 8;
  } else {
    return ArgParse::kUnknown;
  }
  return ArgParse::kConsumed;
}

/// Parses "HOST:PORT" or bare "PORT" (host defaults to loopback).
/// Returns false (with a diagnostic) on a malformed port.
inline bool parse_endpoint(const char* argv0, const std::string& spec,
                           std::string& host, std::uint16_t& port) {
  std::string port_part = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    host = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  char* end = nullptr;
  const long p = std::strtol(port_part.c_str(), &end, 10);
  if (end == port_part.c_str() || *end != '\0' || p < 1 || p > 65535) {
    std::fprintf(stderr, "%s: bad port in '%s'\n", argv0, spec.c_str());
    return false;
  }
  port = static_cast<std::uint16_t>(p);
  return true;
}

}  // namespace dot::examples

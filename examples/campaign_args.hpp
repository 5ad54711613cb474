// Campaign-knob parsing for the example CLIs: the knobs every tool
// shares (flashadc/campaign_args.hpp) plus the macro-selection flags
// only the examples take. The dispatch tools (dispatch_daemon /
// dispatch_worker) parse with it too, so a worker launched with the
// same flags as the daemon passes the handshake interlock.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "flashadc/campaign.hpp"
#include "flashadc/campaign_args.hpp"

namespace dot::examples {

using flashadc::arg_value;
using flashadc::ArgParse;

/// The usage fragment for the campaign knobs (one indented line each).
inline const char* campaign_usage() {
  static const std::string usage =
      std::string(flashadc::campaign_usage()) +
      "          [--macro=NAME] [--bank-size=N] [--chip-slices=N]\n";
  return usage.c_str();
}

/// Offers `arg` to the shared campaign-knob parser, then to the
/// example-only --macro / --bank-size / --chip-slices flags. `threads`
/// receives --threads (0 = hardware concurrency). On kBad a diagnostic
/// naming `argv0` was already printed to stderr.
inline ArgParse parse_campaign_arg(const char* argv0, const std::string& arg,
                                   flashadc::CampaignConfig& config,
                                   unsigned& threads) {
  const ArgParse shared =
      flashadc::parse_campaign_arg(argv0, arg, config, threads);
  if (shared != ArgParse::kUnknown) return shared;
  // Column heights: 2..256 bank slices, 4..256 chip comparators (the
  // divisibility rules are checked when the netlist is built).
  auto column = [&](const char* flag, const char* v, std::uint64_t min,
                    int& out) {
    std::uint64_t n = 0;
    if (!flashadc::parse_whole(v, 256, n) || n < min) {
      std::fprintf(stderr, "%s: bad %s value '%s'\n", argv0, flag, v);
      return ArgParse::kBad;
    }
    out = static_cast<int>(n);
    return ArgParse::kConsumed;
  };
  if (const char* v = arg_value(arg, "--macro=")) {
    config.macro_selection = v;
  } else if (const char* v = arg_value(arg, "--bank-size=")) {
    return column("--bank-size", v, 2, config.bank_size);
  } else if (const char* v = arg_value(arg, "--chip-slices=")) {
    return column("--chip-slices", v, 4, config.chip_slices);
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

// Campaign-knob parsing for the example CLIs: the knobs every tool
// shares (flashadc/campaign_args.hpp) plus the macro-selection and
// shard flags only the examples take. Every numeric flag is strict.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

#include "flashadc/campaign.hpp"
#include "flashadc/campaign_args.hpp"

namespace dot::examples {

using flashadc::arg_value;
using flashadc::ArgParse;

/// The usage fragment for the campaign knobs (one indented line each).
inline const char* campaign_usage() {
  static const std::string usage =
      std::string(flashadc::campaign_usage()) +
      "          [--macro=NAME] [--bank-size=N] [--chip-slices=N]\n"
      "          [--shards=N] [--shard=K]\n";
  return usage.c_str();
}

/// Offers `arg` to the shared campaign-knob parser, then to the
/// example-only --macro / --bank-size / --chip-slices / --shards /
/// --shard flags. `threads` receives --threads (0 = hardware
/// concurrency). On kBad a diagnostic naming `argv0` was already
/// printed to stderr. Whether --shard is below --shards is left to the
/// caller, which sees both.
inline ArgParse parse_campaign_arg(const char* argv0, const std::string& arg,
                                   flashadc::CampaignConfig& config,
                                   unsigned& threads) {
  const ArgParse shared =
      flashadc::parse_campaign_arg(argv0, arg, config, threads);
  if (shared != ArgParse::kUnknown) return shared;
  auto whole = [&](const char* flag, const char* v, std::uint64_t min,
                   std::uint64_t max, auto& out) {
    std::uint64_t n = 0;
    if (!flashadc::parse_whole(v, max, n) || n < min) {
      std::fprintf(stderr, "%s: bad %s value '%s'\n", argv0, flag, v);
      return ArgParse::kBad;
    }
    out = static_cast<std::remove_reference_t<decltype(out)>>(n);
    return ArgParse::kConsumed;
  };
  // Column heights: 2..256 bank slices, 4..256 chip comparators (the
  // divisibility rules are checked when the netlist is built); at least
  // one shard.
  if (const char* v = arg_value(arg, "--macro=")) {
    config.macro_selection = v;
  } else if (const char* v = arg_value(arg, "--bank-size=")) {
    return whole("--bank-size", v, 2, 256, config.bank_size);
  } else if (const char* v = arg_value(arg, "--chip-slices=")) {
    return whole("--chip-slices", v, 4, 256, config.chip_slices);
  } else if (const char* v = arg_value(arg, "--shards=")) {
    return whole("--shards", v, 1, SIZE_MAX, config.resilience.shard_count);
  } else if (const char* v = arg_value(arg, "--shard=")) {
    return whole("--shard", v, 0, SIZE_MAX, config.resilience.shard_index);
  } else {
    return ArgParse::kUnknown;
  }
  return ArgParse::kConsumed;
}

}  // namespace dot::examples

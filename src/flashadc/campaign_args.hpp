// Campaign-knob parsing shared by every command-line tool: the bench
// harnesses and the example CLIs parse the knobs that shape a campaign
// here, so a preset or a validation rule cannot drift between them.
//
// Every numeric knob is strict: empty input, a sign, trailing
// characters, a non-finite value and overflow are rejected (kBad), so a
// typo never silently runs a default or a truncated number.
#pragma once

#include <cstdint>
#include <string>

#include "flashadc/campaign.hpp"

namespace dot::flashadc {

/// Returns the value part when `arg` is "<prefix><value>", else nullptr.
const char* arg_value(const std::string& arg, const char* prefix);

/// Parses a whole decimal number in 0..max (digits only).
bool parse_whole(const char* text, std::uint64_t max, std::uint64_t& out);

/// Parses a finite, non-negative number in plain decimal notation.
bool parse_nonnegative(const char* text, double& out);

/// Result of offering one argv entry to the shared parser.
enum class ArgParse {
  kConsumed,  ///< Recognized and applied.
  kUnknown,   ///< Not a shared campaign knob; try the tool's own flags.
  kBad,       ///< Recognized but malformed (diagnostic already printed).
};

/// The usage fragment for the shared knobs (indented lines).
const char* campaign_usage();

/// Offers `arg` to the shared campaign-knob parser: --defects,
/// --envelope, --classes, --seed, --threads (0 = hardware concurrency,
/// stored in `threads`), --class-timeout-ms, --max-retries,
/// --phase-times and the --quick / --smoke presets. On
/// kBad a diagnostic naming `argv0` was already printed to stderr.
ArgParse parse_campaign_arg(const char* argv0, const std::string& arg,
                            CampaignConfig& config, unsigned& threads);

}  // namespace dot::flashadc

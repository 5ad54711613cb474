#include "flashadc/campaign_args.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dot::flashadc {

const char* arg_value(const std::string& arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
}

bool parse_whole(const char* text, std::uint64_t max, std::uint64_t& out) {
  if (*text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p)
    if (*p < '0' || *p > '9') return false;
  errno = 0;
  const unsigned long long value = std::strtoull(text, nullptr, 10);
  if (errno == ERANGE || value > max) return false;
  out = value;
  return true;
}

bool parse_nonnegative(const char* text, double& out) {
  // Plain decimal notation only: a leading digit or point rules out
  // signs, blanks, "inf" and "nan"; the character set rules out hex.
  if (!(*text == '.' || (*text >= '0' && *text <= '9'))) return false;
  if (text[std::strspn(text, "0123456789.eE+-")] != '\0') return false;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(value)) return false;
  out = value;
  return true;
}

const char* campaign_usage() {
  return "          [--defects=N] [--envelope=N] [--classes=N] [--seed=N]\n"
         "          [--threads=N] [--class-timeout-ms=T] [--max-retries=N]\n"
         "          [--batch=N|auto] [--phase-times] [--quick] [--smoke]\n";
}

ArgParse parse_campaign_arg(const char* argv0, const std::string& arg,
                            CampaignConfig& config, unsigned& threads) {
  auto bad = [&](const char* v) {
    std::fprintf(stderr, "%s: bad value '%s' in '%s'\n", argv0, v,
                 arg.c_str());
    return ArgParse::kBad;
  };
  std::uint64_t n = 0;
  if (const char* v = arg_value(arg, "--defects=")) {
    if (!parse_whole(v, SIZE_MAX, n)) return bad(v);
    config.defect_count = static_cast<std::size_t>(n);
  } else if (const char* v = arg_value(arg, "--envelope=")) {
    if (!parse_whole(v, INT_MAX, n)) return bad(v);
    config.envelope_samples = static_cast<int>(n);
  } else if (const char* v = arg_value(arg, "--classes=")) {
    if (!parse_whole(v, SIZE_MAX, n)) return bad(v);
    config.max_classes = static_cast<std::size_t>(n);
  } else if (const char* v = arg_value(arg, "--seed=")) {
    if (!parse_whole(v, UINT64_MAX, config.seed)) return bad(v);
  } else if (const char* v = arg_value(arg, "--threads=")) {
    if (!parse_whole(v, UINT_MAX, n)) return bad(v);
    threads = static_cast<unsigned>(n);
  } else if (const char* v = arg_value(arg, "--max-retries=")) {
    if (!parse_whole(v, INT_MAX, n)) return bad(v);
    config.resilience.max_retries = static_cast<int>(n);
  } else if (const char* v = arg_value(arg, "--class-timeout-ms=")) {
    if (!parse_nonnegative(v, config.resilience.class_timeout_ms))
      return bad(v);
  } else if (const char* v = arg_value(arg, "--batch=")) {
    // "auto" maps to the sentinel 0.
    if (std::strcmp(v, "auto") != 0 && !parse_whole(v, SIZE_MAX, n))
      return bad(v);
    config.batch = static_cast<std::size_t>(n);
  } else if (arg == "--phase-times") {
    config.collect_phase_times = true;
  } else if (arg == "--quick") {
    config.defect_count = 60000;
    config.envelope_samples = 10;
    config.max_classes = 40;
  } else if (arg == "--smoke") {
    config.defect_count = 8000;
    config.envelope_samples = 4;
    config.max_classes = 8;
  } else {
    return ArgParse::kUnknown;
  }
  return ArgParse::kConsumed;
}

}  // namespace dot::flashadc

// The shared campaign-knob parser (flashadc/campaign_args.hpp), the
// example CLIs' own flags on top of it (examples/campaign_args.hpp) and
// the campaign table's macro selection: strict numeric knobs, the presets,
// a fixed-seed mutation fuzz over valid argv entries, and the one
// resolution of --macro that run_campaign and the journal meta record
// both read.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "../examples/campaign_args.hpp"
#include "flashadc/campaign.hpp"
#include "flashadc/campaign_args.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dot::flashadc {
namespace {

ArgParse parse(const std::string& arg, CampaignConfig& config,
               unsigned& threads) {
  return parse_campaign_arg("campaign_args_test", arg, config, threads);
}

ArgParse parse(const std::string& arg) {
  CampaignConfig config;
  unsigned threads = 0;
  return parse(arg, config, threads);
}

TEST(CampaignArgs, RejectsMalformedNumbers) {
  for (const std::string flag :
       {"--defects=", "--envelope=", "--classes=", "--seed=", "--threads=",
        "--max-retries=", "--class-timeout-ms="}) {
    for (const std::string value :
         {"", "abc", "12k", "-1", "+5", " 5", "5 ", "0x10", "1.5.2"})
      EXPECT_EQ(parse(flag + value), ArgParse::kBad) << flag << value;
  }
  // Whole-number knobs also refuse decimals, exponents and overflow.
  for (const std::string flag :
       {"--defects=", "--envelope=", "--classes=", "--seed=", "--threads=",
        "--max-retries="}) {
    for (const std::string value : {"1.5", "1e3", "99999999999999999999999"})
      EXPECT_EQ(parse(flag + value), ArgParse::kBad) << flag << value;
  }
}

TEST(CampaignArgs, RejectsValuesOutsideTheFieldRange) {
  EXPECT_EQ(parse("--envelope=2147483648"), ArgParse::kBad);
  EXPECT_EQ(parse("--max-retries=2147483648"), ArgParse::kBad);
  EXPECT_EQ(parse("--threads=4294967296"), ArgParse::kBad);
  EXPECT_EQ(parse("--seed=18446744073709551616"), ArgParse::kBad);
  EXPECT_EQ(parse("--class-timeout-ms=inf"), ArgParse::kBad);
  EXPECT_EQ(parse("--class-timeout-ms=nan"), ArgParse::kBad);
  EXPECT_EQ(parse("--class-timeout-ms=1e999"), ArgParse::kBad);
  EXPECT_EQ(parse("--class-timeout-ms=-5"), ArgParse::kBad);
}

TEST(CampaignArgs, MalformedValueLeavesConfigUnchanged) {
  CampaignConfig config;
  unsigned threads = 7;
  EXPECT_EQ(parse("--defects=12k", config, threads), ArgParse::kBad);
  EXPECT_EQ(config.defect_count, CampaignConfig{}.defect_count);
  EXPECT_EQ(parse("--threads=x", config, threads), ArgParse::kBad);
  EXPECT_EQ(threads, 7u);
}

TEST(CampaignArgs, AppliesValidValues) {
  CampaignConfig config;
  unsigned threads = 0;
  for (const char* arg :
       {"--defects=12000", "--envelope=9", "--classes=0",
        "--seed=18446744073709551615", "--threads=3", "--max-retries=0",
        "--class-timeout-ms=2.5", "--phase-times"})
    EXPECT_EQ(parse(arg, config, threads), ArgParse::kConsumed) << arg;
  EXPECT_EQ(config.defect_count, 12000u);
  EXPECT_EQ(config.envelope_samples, 9);
  EXPECT_EQ(config.max_classes, 0u);
  EXPECT_EQ(config.seed, 18446744073709551615ull);
  EXPECT_EQ(threads, 3u);
  EXPECT_EQ(config.resilience.max_retries, 0);
  EXPECT_DOUBLE_EQ(config.resilience.class_timeout_ms, 2.5);
  EXPECT_TRUE(config.collect_phase_times);
}

TEST(CampaignArgs, PresetsAndUnknownFlags) {
  CampaignConfig config;
  unsigned threads = 0;
  ASSERT_EQ(parse("--quick", config, threads), ArgParse::kConsumed);
  EXPECT_EQ(config.defect_count, 60000u);
  EXPECT_EQ(config.envelope_samples, 10);
  EXPECT_EQ(config.max_classes, 40u);
  ASSERT_EQ(parse("--smoke", config, threads), ArgParse::kConsumed);
  EXPECT_EQ(config.defect_count, 8000u);
  EXPECT_EQ(config.envelope_samples, 4);
  EXPECT_EQ(config.max_classes, 8u);
  // Tool-only flags are left to the tool. System size alone picks the
  // linear solver, so a solver flag is unknown everywhere; the batched
  // prepass and its --batch flag are gone.
  for (const char* arg : {"--defect=5", "--macro=bank", "--bank-size=8",
                          "--shards=2", "--json=x", "defects=5",
                          "--solver=dense"})
    EXPECT_EQ(parse(arg), ArgParse::kUnknown) << arg;
  EXPECT_EQ(parse("--batch=8"), ArgParse::kUnknown);
}

// The shard flags are the whole multi-host interface, so a malformed
// value must fail loudly: "-1" must not wrap to 2^64-1 shards, and
// "abc" / "2x" must not run shard 0 / 2 shards.
TEST(CampaignArgs, ShardFlagsAreStrict) {
  CampaignConfig config;
  unsigned threads = 0;
  auto parse_tool = [&](const std::string& arg) {
    return examples::parse_campaign_arg("campaign_args_test", arg, config,
                                        threads);
  };
  for (const std::string flag : {"--shards=", "--shard="}) {
    for (const std::string value :
         {"", "-1", "abc", "2x", "+2", " 2", "2 ", "0x2", "1.5", "1e3",
          "18446744073709551616"})
      EXPECT_EQ(parse_tool(flag + value), ArgParse::kBad) << flag << value;
  }
  EXPECT_EQ(parse_tool("--shards=0"), ArgParse::kBad);
  EXPECT_EQ(config.resilience.shard_count, 1u);
  EXPECT_EQ(config.resilience.shard_index, 0u);
  EXPECT_EQ(parse_tool("--shards=4"), ArgParse::kConsumed);
  EXPECT_EQ(parse_tool("--shard=3"), ArgParse::kConsumed);
  EXPECT_EQ(config.resilience.shard_count, 4u);
  EXPECT_EQ(config.resilience.shard_index, 3u);
}

// Mutation fuzz: byte-level mutants of the value part of valid argv
// entries. Each must end consumed with an in-range value, or kBad --
// never a crash, never an out-of-range field.
TEST(CampaignArgs, MutatedValuesAreConsumedInRangeOrRejected) {
  const std::vector<std::string> seeds = {
      "--defects=60000",   "--envelope=10",        "--classes=40",
      "--seed=1995",       "--threads=4",          "--max-retries=3",
      "--class-timeout-ms=250.5"};
  const std::string alphabet = "0123456789.-+eExkauto \t\x01\xff";
  util::Rng rng(20261017);
  std::size_t consumed = 0, rejected = 0;
  testing::internal::CaptureStderr();  // one diagnostic per rejection
  for (int i = 0; i < 20000; ++i) {
    const std::string& seed = seeds[rng.below(seeds.size())];
    const std::size_t eq = seed.find('=') + 1;
    std::string value = seed.substr(eq);
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
      const char c = alphabet[rng.below(alphabet.size())];
      const std::size_t at = value.empty() ? 0 : rng.below(value.size());
      const std::uint64_t op = rng.below(4);
      if (op == 0)
        value.insert(at, 1, c);
      else if (op == 1 && !value.empty())
        value.erase(at, 1);
      else if (op == 2 && !value.empty())
        value[at] = c;
      else if (op == 3)
        value += value;  // grow towards overflow
    }
    CampaignConfig config;
    unsigned threads = 0;
    const ArgParse r = parse(seed.substr(0, eq) + value, config, threads);
    ASSERT_NE(r, ArgParse::kUnknown) << seed << " -> " << value;
    if (r == ArgParse::kBad) {
      ++rejected;
      continue;
    }
    ++consumed;
    EXPECT_GE(config.envelope_samples, 0) << value;
    EXPECT_GE(config.resilience.max_retries, 0) << value;
    EXPECT_TRUE(std::isfinite(config.resilience.class_timeout_ms)) << value;
    EXPECT_GE(config.resilience.class_timeout_ms, 0.0) << value;
  }
  testing::internal::GetCapturedStderr();
  // The loop exercises both outcomes.
  EXPECT_GT(consumed, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(MacroSelection, EmptyAndAllSelectTheFiveMacroFlow) {
  const std::vector<std::string> five = {"comparator", "ladder", "biasgen",
                                         "clockgen", "decoder"};
  for (const char* selection : {"", "all"}) {
    CampaignConfig config;
    config.macro_selection = selection;
    EXPECT_EQ(resolve_selection(config), "all") << '"' << selection << '"';
    EXPECT_EQ(expected_macros(config), five) << '"' << selection << '"';
  }
}

TEST(MacroSelection, OneMacroSelectsItself) {
  for (const std::string& name : campaign_macros()) {
    CampaignConfig config;
    config.macro_selection = name;
    EXPECT_EQ(resolve_selection(config), name);
    EXPECT_EQ(expected_macros(config), std::vector<std::string>{name});
  }
  const std::vector<std::string> all = {"comparator", "ladder", "biasgen",
                                        "clockgen",   "decoder", "bank",
                                        "chip"};
  EXPECT_EQ(campaign_macros(), all);
}

TEST(MacroSelection, UnknownNameThrowsBeforeAnythingRuns) {
  CampaignConfig config;
  config.macro_selection = "bogus";
  EXPECT_THROW(resolve_selection(config), util::InvalidInputError);
  EXPECT_THROW(expected_macros(config), util::InvalidInputError);
  EXPECT_THROW(run_campaign(config), util::InvalidInputError);
  EXPECT_THROW(run_macro_campaign(config, "bogus"), util::InvalidInputError);
}

TEST(MacroSelection, DecompositionNeedsASliceMapper) {
  MacroCampaignResult ladder;
  ladder.macro_name = "ladder";
  EXPECT_THROW(compare_decomposition(CampaignConfig{}, ladder),
               util::InvalidInputError);
}

}  // namespace
}  // namespace dot::flashadc

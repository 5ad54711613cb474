// Golden-signature regression corpus: the comparator macro's Table-2
// (voltage signature) and Table-3 (current signature) weight
// distributions at a pinned seed, checked against a committed JSON
// corpus with an explicit tolerance.
//
// The campaign is deterministic for a fixed seed at any thread count,
// so a drifting fraction means the methodology changed -- a solver,
// collapsing or classification edit reshaped the signature population
// -- and the corpus forces that to be a conscious decision:
// regenerate with
//   DOT_REGEN_GOLDEN=1 ./golden_signature_test
// and review the JSON diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flashadc/campaign.hpp"
#include "macro/signature.hpp"
#include "util/json.hpp"

#ifndef DOT_GOLDEN_DIR
#error "DOT_GOLDEN_DIR must point at the committed corpus directory"
#endif

namespace {

using dot::flashadc::MacroCampaignResult;
using dot::util::JsonValue;
using dot::util::JsonWriter;

const char* kGoldenPath = DOT_GOLDEN_DIR "/comparator_signatures.json";
const char* kChipGoldenPath = DOT_GOLDEN_DIR "/chip_signatures.json";

/// The pinned campaign behind the corpus. Small enough for the test
/// budget; the distributions are still spread over every signature
/// bucket the paper's tables use.
dot::flashadc::CampaignConfig golden_config() {
  dot::flashadc::CampaignConfig config;
  config.defect_count = 20000;
  config.envelope_samples = 4;
  config.max_classes = 16;
  config.seed = 19950307;
  config.with_noncatastrophic = true;
  return config;
}

/// The pinned full-chip campaign: the smallest legal chip (8 slices
/// plus biasgen / clockgen / decoder) on the default solver, few
/// classes -- enough to pin the chip macro's composition, fault
/// projection and verdicts without a minutes-long corpus run.
dot::flashadc::CampaignConfig chip_golden_config() {
  dot::flashadc::CampaignConfig config;
  config.macro_selection = "chip";
  config.chip_slices = 8;
  config.defect_count = 20000;
  config.envelope_samples = 2;
  config.max_classes = 6;
  config.seed = 19950307;
  config.with_noncatastrophic = false;
  return config;
}

/// Absolute tolerance on every weight fraction. One collapsed class at
/// this scale carries ~5% weight, so any reclassified class trips this
/// while cross-platform floating-point noise (1e-12 scale) never does.
constexpr double kTolerance = 5e-3;

const std::vector<std::string> kCurrentNames = {"ivdd", "iddq", "iinput",
                                                "none"};

void write_population(JsonWriter& w, const MacroCampaignResult& result,
                      bool non_catastrophic) {
  const auto voltage = result.voltage_signature_fractions(non_catastrophic);
  const auto current = result.current_signature_fractions(non_catastrophic);
  w.begin_object();
  w.key("voltage");
  w.begin_object();
  for (int s = 0; s < dot::macro::kVoltageSignatureCount; ++s) {
    w.key(dot::macro::voltage_signature_name(
        static_cast<dot::macro::VoltageSignature>(s)));
    w.value(voltage[s]);
  }
  w.end_object();
  w.key("current");
  w.begin_object();
  for (std::size_t i = 0; i < kCurrentNames.size(); ++i) {
    w.key(kCurrentNames[i]);
    w.value(current[i]);
  }
  w.end_object();
  w.key("coverage");
  w.value(result.coverage(non_catastrophic));
  w.key("classes");
  w.value(non_catastrophic ? result.noncatastrophic.size()
                           : result.catastrophic.size());
  w.end_object();
}

std::string render_corpus(const MacroCampaignResult& result,
                          const dot::flashadc::CampaignConfig& config,
                          const char* macro_name) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("dot-golden-v1");
  w.key("macro");
  w.value(macro_name);
  w.key("config");
  w.begin_object();
  w.key("defects");
  w.value(config.defect_count);
  w.key("envelope_samples");
  w.value(config.envelope_samples);
  w.key("max_classes");
  w.value(config.max_classes);
  w.key("seed");
  w.value(static_cast<std::size_t>(config.seed));
  if (config.macro_selection == "chip") {
    w.key("chip_slices");
    w.value(static_cast<std::size_t>(config.chip_slices));
  }
  w.end_object();
  w.key("catastrophic");
  write_population(w, result, false);
  if (config.with_noncatastrophic) {
    w.key("noncatastrophic");
    write_population(w, result, true);
  }
  w.end_object();
  return w.str();
}

void check_population(const JsonValue& golden,
                      const MacroCampaignResult& result,
                      bool non_catastrophic, const char* label) {
  const auto voltage = result.voltage_signature_fractions(non_catastrophic);
  const auto& golden_voltage = golden.get("voltage");
  for (int s = 0; s < dot::macro::kVoltageSignatureCount; ++s) {
    const std::string& name = dot::macro::voltage_signature_name(
        static_cast<dot::macro::VoltageSignature>(s));
    EXPECT_NEAR(golden_voltage.get(name).as_number(), voltage[s], kTolerance)
        << label << " Table-2 fraction '" << name << "' drifted";
  }
  const auto current = result.current_signature_fractions(non_catastrophic);
  const auto& golden_current = golden.get("current");
  for (std::size_t i = 0; i < kCurrentNames.size(); ++i)
    EXPECT_NEAR(golden_current.get(kCurrentNames[i]).as_number(), current[i],
                kTolerance)
        << label << " Table-3 fraction '" << kCurrentNames[i] << "' drifted";
  EXPECT_NEAR(golden.get("coverage").as_number(),
              result.coverage(non_catastrophic), kTolerance)
      << label << " coverage drifted";
  EXPECT_EQ(golden.get("classes").as_size(),
            non_catastrophic ? result.noncatastrophic.size()
                             : result.catastrophic.size())
      << label << " class count changed";
}

TEST(GoldenSignatureTest, ComparatorDistributionsMatchCorpus) {
  const auto result =
      dot::flashadc::run_macro_campaign(golden_config(), "comparator");

  if (std::getenv("DOT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << render_corpus(result, golden_config(), "comparator") << "\n";
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << kGoldenPath << "; review the diff";
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing corpus " << kGoldenPath
                  << " -- regenerate with DOT_REGEN_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue golden = dot::util::parse_json(buffer.str());

  ASSERT_EQ(golden.get("schema").as_string(), "dot-golden-v1");
  ASSERT_EQ(golden.get("macro").as_string(), "comparator");
  // The corpus records the config it was generated under; a config
  // drift here invalidates every number below.
  const auto config = golden_config();
  const auto& gc = golden.get("config");
  ASSERT_EQ(gc.get("defects").as_size(), config.defect_count);
  ASSERT_EQ(gc.get("envelope_samples").as_size(),
            static_cast<std::size_t>(config.envelope_samples));
  ASSERT_EQ(gc.get("max_classes").as_size(), config.max_classes);
  ASSERT_EQ(gc.get("seed").as_size(),
            static_cast<std::size_t>(config.seed));

  check_population(golden.get("catastrophic"), result, false,
                   "catastrophic");
  check_population(golden.get("noncatastrophic"), result, true,
                   "noncatastrophic");
}

TEST(GoldenSignatureTest, ChipDistributionsMatchCorpus) {
  const auto config = chip_golden_config();
  const auto global = dot::flashadc::run_campaign(config);
  ASSERT_EQ(global.macros.size(), 1u);
  const MacroCampaignResult& result = global.macros.front();

  if (std::getenv("DOT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kChipGoldenPath);
    ASSERT_TRUE(out) << "cannot write " << kChipGoldenPath;
    out << render_corpus(result, config, "chip") << "\n";
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << kChipGoldenPath
                 << "; review the diff";
  }

  std::ifstream in(kChipGoldenPath);
  ASSERT_TRUE(in) << "missing corpus " << kChipGoldenPath
                  << " -- regenerate with DOT_REGEN_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue golden = dot::util::parse_json(buffer.str());

  ASSERT_EQ(golden.get("schema").as_string(), "dot-golden-v1");
  ASSERT_EQ(golden.get("macro").as_string(), "chip");
  const auto& gc = golden.get("config");
  ASSERT_EQ(gc.get("defects").as_size(), config.defect_count);
  ASSERT_EQ(gc.get("envelope_samples").as_size(),
            static_cast<std::size_t>(config.envelope_samples));
  ASSERT_EQ(gc.get("max_classes").as_size(), config.max_classes);
  ASSERT_EQ(gc.get("seed").as_size(),
            static_cast<std::size_t>(config.seed));
  ASSERT_EQ(gc.get("chip_slices").as_size(),
            static_cast<std::size_t>(config.chip_slices));

  check_population(golden.get("catastrophic"), result, false,
                   "catastrophic");
}

}  // namespace

#include <gtest/gtest.h>

#include "flashadc/report.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace dot::util {
namespace {

TEST(Json, QuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, WriterNestsAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("x");
  w.key("list");
  w.begin_array();
  w.value(1);
  w.value(2.5);
  w.value(true);
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.key("k");
  w.value(std::size_t{7});
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"x\",\"list\":[1,2.5,true],\"nested\":{\"k\":7}}");
}

TEST(Json, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.end_array();
  w.key("b");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":[],\"b\":{}}");
}

// Journals and the golden corpus come from outside the program; the
// parser must not invent a value for a malformed number.
TEST(JsonParse, RejectsExponentWithoutDigits) {
  for (const char* text : {"1e", "1e+", "2.5E-", "[1e]", "{\"a\":3e}"})
    EXPECT_THROW(parse_json(text), InvalidInputError) << text;
  EXPECT_EQ(parse_json("1e3").as_number(), 1000.0);
  EXPECT_EQ(parse_json("-2.5E-1").as_number(), -0.25);
}

TEST(JsonParse, RejectsNonFiniteNumbers) {
  for (const char* text : {"1e999", "-1e999", "[0, 2e400]"})
    EXPECT_THROW(parse_json(text), InvalidInputError) << text;
  EXPECT_EQ(parse_json("1.5e308").as_number(), 1.5e308);
}

TEST(JsonParse, NestingLimit) {
  auto nested = [](int arrays) {
    return std::string(static_cast<std::size_t>(arrays), '[') +
           std::string(static_cast<std::size_t>(arrays), ']');
  };
  EXPECT_NO_THROW(parse_json(nested(64)));
  try {
    (void)parse_json(nested(66));
    FAIL() << "66 nested arrays parsed";
  } catch (const InvalidInputError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dot::util

namespace dot::flashadc {
namespace {

TEST(Report, CampaignSerializes) {
  CampaignConfig config;
  config.defect_count = 30000;
  config.envelope_samples = 8;
  config.max_classes = 10;
  config.with_noncatastrophic = false;
  const auto r = run_macro_campaign(config, "biasgen");
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"macro\":\"biasgen\""), std::string::npos);
  EXPECT_NE(json.find("\"coverage\":"), std::string::npos);
  EXPECT_NE(json.find("\"voltage_signature\":"), std::string::npos);
  // Balanced braces (cheap structural sanity).
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    depth += c == '{' || c == '[';
    depth -= c == '}' || c == ']';
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace dot::flashadc

// Campaign resilience layer: JSON parsing, crash-safe journaling,
// parallel error collection, evaluation deadlines, fault injection
// (retry / aid escalation / unresolved accounting), sharding and
// kill-and-resume.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flashadc/campaign.hpp"
#include "flashadc/journal.hpp"
#include "flashadc/report.hpp"
#include "spice/resilience.hpp"
#include "util/error.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dot {
namespace {

std::string temp_path(const std::string& name) {
  // gtest_discover_tests runs every case as its own process, so a plain
  // TempDir() + name races under `ctest -j`: two cases rebuilding the
  // same helper journal corrupt each other. Namespace by PID.
  static const std::string prefix =
      ::testing::TempDir() + std::to_string(static_cast<long>(::getpid())) +
      "_";
  return prefix + name;
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << contents;
  ASSERT_TRUE(out.good());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream ss(text);
  for (std::string line; std::getline(ss, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

// ---------------------------------------------------------------------
// JSON parser.

TEST(JsonParse, ScalarsArraysObjects) {
  const auto v = util::parse_json(
      R"({"num": -1.5e2, "flag": true, "none": null,)"
      R"( "text": "a\"bA", "list": [1, 2, 3], "obj": {"k": false}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.get("num").as_number(), -150.0);
  EXPECT_TRUE(v.get("flag").as_bool());
  EXPECT_TRUE(v.get("none").is_null());
  EXPECT_EQ(v.get("text").as_string(), "a\"bA");
  ASSERT_EQ(v.get("list").size(), 3u);
  EXPECT_EQ(v.get("list")[2].as_size(), 3u);
  EXPECT_FALSE(v.get("obj").get("k").as_bool());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.get("missing"), util::InvalidInputError);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(util::parse_json("{"), util::InvalidInputError);
  EXPECT_THROW(util::parse_json("[1,]"), util::InvalidInputError);
  EXPECT_THROW(util::parse_json("{\"a\":1} trailing"),
               util::InvalidInputError);
  EXPECT_THROW(util::parse_json("nul"), util::InvalidInputError);
  EXPECT_THROW(util::parse_json("\"unterminated"), util::InvalidInputError);
}

TEST(JsonParse, RoundtripsWriterOutput) {
  util::JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("comparator \"dft\"\n");
  w.key("values");
  w.begin_array();
  w.value(1.25);
  w.value(std::size_t{42});
  w.value(false);
  w.end_array();
  w.end_object();
  const auto v = util::parse_json(w.str());
  EXPECT_EQ(v.get("name").as_string(), "comparator \"dft\"\n");
  EXPECT_DOUBLE_EQ(v.get("values")[0].as_number(), 1.25);
  EXPECT_EQ(v.get("values")[1].as_size(), 42u);
  EXPECT_FALSE(v.get("values")[2].as_bool());
}

// ---------------------------------------------------------------------
// Crash-safe journal.

TEST(Journal, WriteReadRoundtrip) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  {
    util::JournalWriter writer(path, false, 4);
    for (int i = 0; i < 10; ++i)
      writer.append("{\"i\": " + std::to_string(i) + "}");
    writer.close();
  }
  const auto contents = util::read_journal(path);
  EXPECT_FALSE(contents.truncated_tail);
  ASSERT_EQ(contents.records.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(contents.records[i].get("i").as_size(), i);
}

TEST(Journal, CheckpointIsAtomicRename) {
  const std::string path = temp_path("journal_atomic.jsonl");
  util::JournalWriter writer(path, false, 100);  // no auto checkpoint
  writer.append("{\"i\": 0}");
  // Not yet checkpointed: the file does not exist (or is stale).
  writer.checkpoint();
  EXPECT_EQ(read_file(path), "{\"i\": 0}\n");
  writer.append("{\"i\": 1}");
  writer.close();
  EXPECT_EQ(read_file(path), "{\"i\": 0}\n{\"i\": 1}\n");
}

TEST(Journal, ToleratesTruncatedFinalRecord) {
  const std::string path = temp_path("journal_truncated.jsonl");
  write_file(path, "{\"i\": 0}\n{\"i\": 1}\n{\"i\": 2, \"par");
  const auto contents = util::read_journal(path);
  EXPECT_TRUE(contents.truncated_tail);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[1].get("i").as_size(), 1u);
}

TEST(Journal, RejectsInteriorCorruption) {
  const std::string path = temp_path("journal_corrupt.jsonl");
  write_file(path, "{\"i\": 0}\nGARBAGE NOT JSON\n{\"i\": 2}\n");
  EXPECT_THROW(util::read_journal(path), util::InvalidInputError);
}

TEST(Journal, MissingFileIsEmpty) {
  const auto contents = util::read_journal(temp_path("does_not_exist.jsonl"));
  EXPECT_TRUE(contents.records.empty());
  EXPECT_FALSE(contents.truncated_tail);
}

TEST(Journal, PreserveExistingKeepsPriorRecords) {
  const std::string path = temp_path("journal_preserve.jsonl");
  {
    util::JournalWriter writer(path, false, 2);
    writer.append("{\"i\": 0}");
    writer.append("{\"i\": 1}");
    writer.close();
  }
  {
    util::JournalWriter writer(path, true, 2);
    writer.append("{\"i\": 2}");
    writer.close();
  }
  const auto contents = util::read_journal(path);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[2].get("i").as_size(), 2u);
}

// ---------------------------------------------------------------------
// Parallel error handling.

TEST(ParallelErrors, FirstErrorNamesChunkAndContext) {
  try {
    util::parallel_for(8, [](std::size_t i) {
      if (i == 5) throw util::InvalidInputError("boom at 5");
    });
    FAIL() << "expected ParallelError";
  } catch (const util::ParallelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chunk"), std::string::npos) << what;
    EXPECT_NE(what.find("boom at 5"), std::string::npos) << what;
    ASSERT_TRUE(e.original());
    EXPECT_THROW(std::rethrow_exception(e.original()),
                 util::InvalidInputError);
  }
}

// ---------------------------------------------------------------------
// EvalScope deadlines and aid levels.

TEST(EvalScope, NoScopeIsNoOp) {
  EXPECT_NO_THROW(spice::EvalScope::check_deadline());
  EXPECT_EQ(spice::EvalScope::aid_level(), 0);
  EXPECT_EQ(spice::EvalScope::current(), nullptr);
}

TEST(EvalScope, ExpiredDeadlineThrowsTimeoutWithContext) {
  spice::EvalScope scope("biasgen", 7, {/*timeout_ms=*/1e-3, /*aid=*/0});
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  try {
    spice::EvalScope::check_deadline();
    FAIL() << "expected TimeoutError";
  } catch (const util::TimeoutError& e) {
    EXPECT_EQ(e.class_index(), 7u);
    EXPECT_EQ(e.macro(), "biasgen");
    EXPECT_NE(std::string(e.what()).find("biasgen"), std::string::npos);
  }
}

TEST(EvalScope, ZeroTimeoutNeverExpires) {
  spice::EvalScope scope("ladder", 1, {/*timeout_ms=*/0.0, /*aid=*/2});
  EXPECT_NO_THROW(spice::EvalScope::check_deadline());
  EXPECT_EQ(spice::EvalScope::aid_level(), 2);
}

TEST(EvalScope, InnermostScopeWins) {
  spice::EvalScope outer("a", 0, {0.0, 1});
  {
    spice::EvalScope inner("b", 1, {0.0, 3});
    EXPECT_EQ(spice::EvalScope::aid_level(), 3);
    EXPECT_EQ(spice::EvalScope::current()->macro(), "b");
  }
  EXPECT_EQ(spice::EvalScope::aid_level(), 1);
  EXPECT_EQ(spice::EvalScope::current()->macro(), "a");
}

// ---------------------------------------------------------------------
// Fault injection through the campaign guard.

struct PlanGuard {
  explicit PlanGuard(spice::InjectionPlan plan) {
    spice::set_injection_plan(std::move(plan));
  }
  ~PlanGuard() { spice::clear_injection_plan(); }
};

flashadc::CampaignConfig injection_config() {
  flashadc::CampaignConfig config;
  config.defect_count = 20000;
  config.seed = 7;
  config.envelope_samples = 6;
  config.max_classes = 10;
  return config;
}

TEST(Injection, TimeoutClassEndsUnresolvedAfterRetryBudget) {
  auto config = injection_config();
  config.resilience.max_retries = 2;  // 3 attempts total
  spice::InjectionPlan plan;
  plan.mode = spice::InjectionPlan::Mode::kTimeout;
  plan.macro = "biasgen";
  plan.class_indices = {0};
  PlanGuard guard(std::move(plan));

  const auto r = flashadc::run_macro_campaign(config, "biasgen");
  ASSERT_FALSE(r.catastrophic.empty());
  // The sabotaged class completed the campaign as a structured
  // unresolved outcome (class order is likelihood order, so class 0 is
  // the first catastrophic entry).
  const auto& sabotaged = r.catastrophic[0];
  EXPECT_EQ(sabotaged.status, flashadc::EvalStatus::kUnresolved);
  EXPECT_EQ(sabotaged.attempts, 3);
  EXPECT_NE(sabotaged.failure.find("injected"), std::string::npos)
      << sabotaged.failure;
  EXPECT_FALSE(sabotaged.detection.detected());
  // Every other class resolved normally on the first attempt.
  for (std::size_t i = 1; i < r.catastrophic.size(); ++i) {
    EXPECT_EQ(r.catastrophic[i].status, flashadc::EvalStatus::kOk);
    EXPECT_EQ(r.catastrophic[i].attempts, 1);
  }
  EXPECT_GE(r.unresolved_classes(), 1u);
  EXPECT_GT(r.unresolved_weight(false), 0.0);
  // Unresolved weight is its own bucket: not detected, not undetected.
  const auto venn = macro::compile_venn(r.contribution(false).outcomes);
  EXPECT_GT(venn.unresolved, 0.0);
  EXPECT_NEAR(venn.detected() + venn.undetected + venn.unresolved, 1.0, 1e-9);
  // And the JSON report carries the bucket.
  const std::string json = flashadc::to_json(r);
  EXPECT_NE(json.find("\"status\":\"unresolved\""), std::string::npos);
  EXPECT_NE(json.find("\"unresolved_classes\":" +
                      std::to_string(r.unresolved_classes())),
            std::string::npos);
}

TEST(Injection, AidEscalationRescuesClass) {
  auto config = injection_config();
  config.resilience.max_retries = 3;
  spice::InjectionPlan plan;
  plan.mode = spice::InjectionPlan::Mode::kFailBelowAid;
  plan.min_aid_level = 2;
  plan.macro = "biasgen";
  plan.class_indices = {0};
  PlanGuard guard(std::move(plan));

  const auto r = flashadc::run_macro_campaign(config, "biasgen");
  ASSERT_FALSE(r.catastrophic.empty());
  // Attempts at aid 0 and 1 fail; the third attempt (aid 2) resolves.
  const auto& rescued = r.catastrophic[0];
  EXPECT_EQ(rescued.status, flashadc::EvalStatus::kOk);
  EXPECT_EQ(rescued.attempts, 3);
  EXPECT_TRUE(rescued.failure.empty());
  EXPECT_EQ(r.unresolved_classes(), 0u);
}

TEST(Injection, ConvergenceFailureStaysDetectedByConstruction) {
  auto config = injection_config();
  spice::InjectionPlan plan;
  plan.mode = spice::InjectionPlan::Mode::kConvergence;
  plan.macro = "biasgen";
  plan.class_indices = {0};
  PlanGuard guard(std::move(plan));

  const auto r = flashadc::run_macro_campaign(config, "biasgen");
  ASSERT_FALSE(r.catastrophic.empty());
  // ConvergenceError is a statement about the circuit, not the
  // infrastructure: the macro simulator converts it to converged=false
  // and the class is detected-by-construction on the first attempt.
  const auto& pathological = r.catastrophic[0];
  EXPECT_EQ(pathological.status, flashadc::EvalStatus::kOk);
  EXPECT_EQ(pathological.attempts, 1);
  EXPECT_TRUE(pathological.detection.detected());
  EXPECT_TRUE(pathological.current.ivdd);
}

// ---------------------------------------------------------------------
// Sharding and kill-and-resume.

flashadc::CampaignConfig tiny_full_config() {
  flashadc::CampaignConfig config;
  config.defect_count = 8000;
  config.seed = 11;
  config.envelope_samples = 4;
  config.max_classes = 6;
  return config;
}

TEST(Sharding, ShardUnionMatchesUnshardedRun) {
  auto unsharded = tiny_full_config();
  unsharded.resilience.journal_path = temp_path("unsharded.jsonl");
  flashadc::run_full_campaign(unsharded);

  std::vector<std::string> shard_journals;
  for (std::size_t k = 0; k < 2; ++k) {
    auto shard = tiny_full_config();
    shard.resilience.shard_count = 2;
    shard.resilience.shard_index = k;
    shard.resilience.journal_path =
        temp_path("shard" + std::to_string(k) + ".jsonl");
    shard_journals.push_back(shard.resilience.journal_path);
    flashadc::run_full_campaign(shard);
  }

  // Both reports go through the merge path, so equality is exact.
  const std::string merged = flashadc::to_json(
      flashadc::merge_shard_journals(shard_journals));
  const std::string reference = flashadc::to_json(
      flashadc::merge_shard_journals({unsharded.resilience.journal_path}));
  EXPECT_EQ(merged, reference);
  EXPECT_NE(merged.find("\"macro\":\"comparator\""), std::string::npos);
}

TEST(Sharding, MergeRejectsIncompleteOrDuplicateShardSets) {
  // Journals from ShardUnionMatchesUnshardedRun are not guaranteed to
  // exist here (test order), so produce a fresh pair cheaply.
  std::vector<std::string> journals;
  for (std::size_t k = 0; k < 2; ++k) {
    auto shard = tiny_full_config();
    shard.max_classes = 2;
    shard.resilience.shard_count = 2;
    shard.resilience.shard_index = k;
    shard.resilience.journal_path =
        temp_path("merge_check" + std::to_string(k) + ".jsonl");
    journals.push_back(shard.resilience.journal_path);
    flashadc::run_full_campaign(shard);
  }
  EXPECT_THROW(flashadc::merge_shard_journals({journals[0]}),
               util::ShardError);
  EXPECT_THROW(flashadc::merge_shard_journals({journals[0], journals[0]}),
               util::ShardError);
  EXPECT_NO_THROW(flashadc::merge_shard_journals(journals));
}

TEST(Resume, RejectsJournalFromDifferentCampaign) {
  auto config = tiny_full_config();
  config.max_classes = 2;
  config.resilience.journal_path = temp_path("mismatch.jsonl");
  flashadc::run_full_campaign(config);

  auto other = config;
  other.seed = 12345;  // different campaign identity
  other.resilience.resume = true;
  EXPECT_THROW(flashadc::run_full_campaign(other), util::ShardError);
}

// A run killed mid-campaign resumes to the uninterrupted report: both
// unsharded and as shard 1 of 2, the multi-host recovery path, where
// the resumed shard merged with an undisturbed shard 0 must equal the
// unsharded run byte for byte.
TEST(Resume, KilledRunResumesToIdenticalReport) {
  auto config = tiny_full_config();
  config.resilience.checkpoint_block = 4;
  auto unsharded = config;
  unsharded.resilience.journal_path = temp_path("full.jsonl");
  const std::string reference =
      flashadc::to_json(flashadc::run_full_campaign(unsharded));
  const std::string merged_reference = flashadc::to_json(
      flashadc::merge_shard_journals({unsharded.resilience.journal_path}));

  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto killed = config;
    killed.resilience.shard_count = shards;
    killed.resilience.shard_index = shards - 1;
    std::vector<std::string> journals;
    for (std::size_t k = 0; k + 1 < shards; ++k) {
      auto undisturbed = killed;
      undisturbed.resilience.shard_index = k;
      undisturbed.resilience.journal_path =
          temp_path("undisturbed" + std::to_string(k) + ".jsonl");
      flashadc::run_full_campaign(undisturbed);
      journals.push_back(undisturbed.resilience.journal_path);
    }
    killed.resilience.journal_path =
        temp_path("killed_of" + std::to_string(shards) + ".jsonl");
    journals.push_back(killed.resilience.journal_path);
    flashadc::run_full_campaign(killed);

    // Simulate a SIGKILL mid-campaign: keep a prefix of the journal and
    // leave a torn, half-written record at the tail.
    std::vector<std::string> lines =
        split_lines(read_file(killed.resilience.journal_path));
    ASSERT_GT(lines.size(), 4u);
    lines.resize(lines.size() / 2);
    const std::string torn = "{\"type\": \"class\", \"macro\": \"compar";
    write_file(killed.resilience.journal_path, join_lines(lines) + torn);
    killed.resilience.resume = true;
    const auto resumed = flashadc::run_full_campaign(killed);
    if (shards == 1) {
      EXPECT_EQ(flashadc::to_json(resumed), reference);
    }

    // The repaired journal (with the undisturbed shards) merges to the
    // same report as the uninterrupted unsharded journal.
    EXPECT_EQ(flashadc::to_json(flashadc::merge_shard_journals(journals)),
              merged_reference);
  }
}

// ---------------------------------------------------------------------
// Journal robustness fuzzing: hand-corrupted JSONL corpora must raise
// clean, typed errors (ShardError / InvalidInputError with a message
// naming the journal and the defect) or be tolerated with the damage
// explicitly dropped -- never a silent wrong resume, never a crash.

/// Tiny flat-bank campaign (2 slices): the journal under attack carries
/// a campaign="bank" meta record, so the bank-specific identity fields
/// are on the resume/merge path.
flashadc::CampaignConfig tiny_bank_config() {
  flashadc::CampaignConfig config;
  config.macro_selection = "bank";
  config.bank_size = 2;
  config.defect_count = 8000;
  config.envelope_samples = 4;
  config.max_classes = 6;
  config.seed = 77;
  config.with_noncatastrophic = false;
  return config;
}

/// Journal text of one completed tiny-bank campaign (run once, reused
/// as the mutation base by every fuzz case).
const std::string& bank_journal_text() {
  static const std::string text = [] {
    auto config = tiny_bank_config();
    config.resilience.journal_path = temp_path("bank_fuzz_base.jsonl");
    config.resilience.checkpoint_block = 1;
    flashadc::run_campaign(config);
    return read_file(config.resilience.journal_path);
  }();
  return text;
}

std::size_t count_class_lines(const std::vector<std::string>& lines) {
  std::size_t n = 0;
  for (const auto& line : lines)
    n += line.find("\"type\":\"class\"") != std::string::npos ? 1u : 0u;
  return n;
}

flashadc::CampaignConfig bank_resume_config(const std::string& path) {
  auto config = tiny_bank_config();
  config.resilience.journal_path = path;
  config.resilience.resume = true;
  return config;
}

template <typename Fn>
std::string shard_error_message(Fn&& fn) {
  try {
    fn();
  } catch (const util::ShardError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected util::ShardError";
  return {};
}

TEST(JournalFuzz, TruncatedUtf8TailIsDroppedNotRestored) {
  auto lines = split_lines(bank_journal_text());
  const std::size_t classes = count_class_lines(lines);
  ASSERT_GT(classes, 1u);
  // A crash mid-write tears the final record inside a multi-byte UTF-8
  // sequence (the first two bytes of U+20AC), no trailing newline.
  std::string torn = lines.back().substr(0, lines.back().size() / 2);
  torn += "caf\xE2\x82";
  lines.back() = torn;
  std::string text = join_lines(lines);
  text.pop_back();  // no newline after the torn record

  const std::string path = temp_path("fuzz_utf8_tail.jsonl");
  write_file(path, text);
  // The torn record is dropped, everything before it restores.
  flashadc::CampaignJournal journal(bank_resume_config(path));
  EXPECT_EQ(journal.resumed_classes(), classes - 1);
  journal.close();
}

TEST(JournalFuzz, TornWriteInsideJournalIsRejected) {
  auto lines = split_lines(bank_journal_text());
  ASSERT_GT(lines.size(), 2u);
  // A torn record that is NOT the tail (filesystem reordered the
  // flush): interior corruption must fail loudly, not resume around.
  lines[lines.size() - 2] =
      lines[lines.size() - 2].substr(0, lines[lines.size() - 2].size() / 2);
  const std::string path = temp_path("fuzz_torn_interior.jsonl");
  write_file(path, join_lines(lines));
  EXPECT_THROW(flashadc::CampaignJournal journal(bank_resume_config(path)),
               util::InvalidInputError);
}

TEST(JournalFuzz, DuplicateClassRecordIsRejected) {
  auto lines = split_lines(bank_journal_text());
  // Concatenating two runs' journals duplicates class ids; restoring
  // either copy silently would hide the corruption.
  std::size_t class_line = 0;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].find("\"type\":\"class\"") != std::string::npos)
      class_line = i;
  lines.push_back(lines[class_line]);
  const std::string path = temp_path("fuzz_duplicate_class.jsonl");
  write_file(path, join_lines(lines));
  const std::string message = shard_error_message([&] {
    flashadc::CampaignJournal journal(bank_resume_config(path));
  });
  EXPECT_NE(message.find("duplicate class record"), std::string::npos)
      << message;
}

TEST(JournalFuzz, BankSizeMismatchRefusesResume) {
  const std::string path = temp_path("fuzz_bank_size.jsonl");
  write_file(path, bank_journal_text());
  // The journal was written by a 2-slice bank campaign; resuming a
  // 4-slice configuration must refuse (the class lists differ).
  auto config = bank_resume_config(path);
  config.bank_size = 4;
  const std::string message = shard_error_message(
      [&] { flashadc::CampaignJournal journal(config); });
  EXPECT_NE(message.find("bank_size"), std::string::npos) << message;
}

TEST(JournalFuzz, CampaignSelectionMismatchRefusesResume) {
  const std::string path = temp_path("fuzz_campaign.jsonl");
  write_file(path, bank_journal_text());
  auto config = bank_resume_config(path);
  config.macro_selection = "comparator";
  const std::string message = shard_error_message(
      [&] { flashadc::CampaignJournal journal(config); });
  EXPECT_NE(message.find("campaign"), std::string::npos) << message;
}

TEST(JournalFuzz, WrongSchemaVersionIsRejected) {
  auto lines = split_lines(bank_journal_text());
  const std::size_t at = lines[0].find("\"schema\":4");
  ASSERT_NE(at, std::string::npos) << lines[0];
  // Schema 3 is the last one with a solver mode in its meta record.
  lines[0].replace(at, 10, "\"schema\":3");
  const std::string path = temp_path("fuzz_schema.jsonl");
  write_file(path, join_lines(lines));
  const std::string message = shard_error_message([&] {
    flashadc::CampaignJournal journal(bank_resume_config(path));
  });
  EXPECT_NE(message.find("schema 3"), std::string::npos) << message;
  const std::string merge_message = shard_error_message(
      [&] { flashadc::merge_shard_journals({path}); });
  EXPECT_NE(merge_message.find("schema 3"), std::string::npos)
      << merge_message;
}

TEST(JournalFuzz, FlippedAttemptsDigitIsRefused) {
  // A value-level corruption that still parses: one class record's
  // attempt count changes by one digit. Its checksum no longer matches,
  // so neither a resume nor a merge may restore the record.
  auto lines = split_lines(bank_journal_text());
  std::size_t line = lines.size();
  std::size_t at = std::string::npos;
  for (std::size_t i = 0; i < lines.size() && line == lines.size(); ++i) {
    at = lines[i].find("\"attempts\":1");
    if (at != std::string::npos) line = i;
  }
  ASSERT_LT(line, lines.size());
  lines[line][at + 11] = '2';
  const std::string path = temp_path("fuzz_attempts_digit.jsonl");
  write_file(path, join_lines(lines));
  const std::string message = shard_error_message([&] {
    flashadc::CampaignJournal journal(bank_resume_config(path));
  });
  EXPECT_NE(message.find("checksum"), std::string::npos) << message;
  const std::string merge_message = shard_error_message(
      [&] { flashadc::merge_shard_journals({path}); });
  EXPECT_NE(merge_message.find("checksum"), std::string::npos)
      << merge_message;
}

TEST(JournalFuzz, FlippedMacroStatisticIsRefused) {
  auto lines = split_lines(bank_journal_text());
  std::size_t line = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].find("\"type\":\"macro\"") != std::string::npos) line = i;
  ASSERT_LT(line, lines.size());
  const std::size_t at = lines[line].find("\"defects_sprinkled\":");
  ASSERT_NE(at, std::string::npos);
  char& digit = lines[line][at + 20];
  digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
  const std::string path = temp_path("fuzz_macro_digit.jsonl");
  write_file(path, join_lines(lines));
  const std::string message = shard_error_message([&] {
    flashadc::CampaignJournal journal(bank_resume_config(path));
  });
  EXPECT_NE(message.find("checksum"), std::string::npos) << message;
}

TEST(JournalFuzz, UnknownRecordTypeIsRejected) {
  auto lines = split_lines(bank_journal_text());
  lines.push_back("{\"type\":\"mystery\"}");
  const std::string path = temp_path("fuzz_unknown_type.jsonl");
  write_file(path, join_lines(lines));
  const std::string message = shard_error_message([&] {
    flashadc::CampaignJournal journal(bank_resume_config(path));
  });
  EXPECT_NE(message.find("unknown record type"), std::string::npos) << message;
}

TEST(JournalFuzz, ClassRecordsWithoutMetaRefuseResume) {
  auto lines = split_lines(bank_journal_text());
  ASSERT_NE(lines[0].find("\"type\":\"meta\""), std::string::npos);
  lines.erase(lines.begin());
  const std::string path = temp_path("fuzz_no_meta.jsonl");
  write_file(path, join_lines(lines));
  const std::string message = shard_error_message([&] {
    flashadc::CampaignJournal journal(bank_resume_config(path));
  });
  EXPECT_NE(message.find("no meta record"), std::string::npos) << message;
}

TEST(JournalFuzz, MergeRejectsBankSizeMismatchAcrossShards) {
  // Two real bank shards...
  auto shard0 = tiny_bank_config();
  shard0.resilience.shard_count = 2;
  shard0.resilience.shard_index = 0;
  shard0.resilience.journal_path = temp_path("fuzz_merge_shard0.jsonl");
  flashadc::run_campaign(shard0);
  auto shard1 = shard0;
  shard1.resilience.shard_index = 1;
  shard1.resilience.journal_path = temp_path("fuzz_merge_shard1.jsonl");
  flashadc::run_campaign(shard1);

  // ...merge cleanly...
  EXPECT_NO_THROW(flashadc::merge_shard_journals(
      {shard0.resilience.journal_path, shard1.resilience.journal_path}));

  // ...but not once shard 1's meta claims a different column height.
  auto lines = split_lines(read_file(shard1.resilience.journal_path));
  const std::size_t at = lines[0].find("\"bank_size\":2");
  ASSERT_NE(at, std::string::npos) << lines[0];
  lines[0].replace(at, 13, "\"bank_size\":4");
  const std::string tampered = temp_path("fuzz_merge_shard1_tampered.jsonl");
  write_file(tampered, join_lines(lines));
  const std::string message = shard_error_message([&] {
    flashadc::merge_shard_journals(
        {shard0.resilience.journal_path, tampered});
  });
  EXPECT_NE(message.find("bank_size"), std::string::npos) << message;

  // A duplicated shard journal is rejected as well.
  const std::string dup = shard_error_message([&] {
    flashadc::merge_shard_journals(
        {shard0.resilience.journal_path, shard0.resilience.journal_path});
  });
  EXPECT_NE(dup.find("duplicate journal for shard"), std::string::npos)
      << dup;
}

TEST(JournalFuzz, MergeRejectsOverlappingClassOwnershipNamingBothShards) {
  // Two real bank shards with disjoint ownership...
  auto shard0 = tiny_bank_config();
  shard0.resilience.shard_count = 2;
  shard0.resilience.shard_index = 0;
  shard0.resilience.journal_path = temp_path("fuzz_overlap_shard0.jsonl");
  flashadc::run_campaign(shard0);
  auto shard1 = shard0;
  shard1.resilience.shard_index = 1;
  shard1.resilience.journal_path = temp_path("fuzz_overlap_shard1.jsonl");
  flashadc::run_campaign(shard1);

  // ...then graft one of shard 0's class records into shard 1's
  // journal: a misconfigured farm where two workers both believed they
  // owned the class. The merge must hard-fail naming BOTH shards, not
  // silently keep either copy.
  const auto donor = split_lines(read_file(shard0.resilience.journal_path));
  std::string stolen;
  for (const auto& line : donor)
    if (line.find("\"type\":\"class\"") != std::string::npos) {
      stolen = line;
      break;
    }
  ASSERT_FALSE(stolen.empty());
  auto lines = split_lines(read_file(shard1.resilience.journal_path));
  lines.push_back(stolen);
  const std::string tampered = temp_path("fuzz_overlap_shard1_tampered.jsonl");
  write_file(tampered, join_lines(lines));

  const std::string message = shard_error_message([&] {
    flashadc::merge_shard_journals({shard0.resilience.journal_path, tampered});
  });
  EXPECT_NE(message.find("duplicate class record"), std::string::npos)
      << message;
  EXPECT_NE(message.find("shard 0"), std::string::npos) << message;
  EXPECT_NE(message.find("shard 1"), std::string::npos) << message;
}

// Fixed-seed mutation loops over a real comparator --smoke journal:
// 600 byte flips, 250 duplicated lines, 75 truncation points and 75
// swapped lines. Most flips and duplicates are refused before any
// simulation; a truncation re-simulates the classes it cut off and a
// swap resumes in full, so those cost five to ten times as much, and
// 75 cover the 10-line journal's tear points and 45 line pairs well. A resume from each mutant must reproduce the unmutated
// report byte for byte (the mutation dropped or reordered only what the
// resume recomputes or re-sorts) or refuse with a structured
// InvalidInputError/ShardError; anything else is a silently different
// coverage report.
flashadc::CampaignConfig smoke_comparator_config() {
  flashadc::CampaignConfig config;  // adc_coverage --macro=comparator --smoke
  config.macro_selection = "comparator";
  config.defect_count = 8000;
  config.envelope_samples = 4;
  config.max_classes = 8;
  return config;
}

struct MutationBase {
  std::string report;  ///< JSON report of the unmutated campaign.
  std::string text;    ///< Its journal.
  std::vector<std::string> lines;
};

const MutationBase& mutation_base() {
  static const MutationBase base = [] {
    auto config = smoke_comparator_config();
    config.resilience.journal_path = temp_path("fuzz_mutant_base.jsonl");
    // One thread writes the class records in class order, so the base
    // text, and with it every mutant, is the same on every run.
    util::ThreadPool::set_global_thread_count(1);
    struct Restore {
      ~Restore() { util::ThreadPool::set_global_thread_count(0); }
    } restore;
    MutationBase b;
    b.report = flashadc::to_json(flashadc::run_campaign(config));
    b.text = read_file(config.resilience.journal_path);
    b.lines = split_lines(b.text);
    return b;
  }();
  return base;
}

/// Resumes from `count` mutants drawn by `mutate` (which returns the
/// mutant and describes it in `what`).
template <typename Mutate>
void expect_mutants_resume_exactly_or_throw(int count, std::uint64_t seed,
                                            Mutate&& mutate) {
  const MutationBase& base = mutation_base();
  ASSERT_GT(base.lines.size(), 4u);
  auto config = smoke_comparator_config();
  config.resilience.journal_path = temp_path("fuzz_mutant.jsonl");
  config.resilience.resume = true;
  util::Rng rng(seed);
  int identical = 0, rejected = 0;
  for (int m = 0; m < count; ++m) {
    std::string what;
    write_file(config.resilience.journal_path, mutate(rng, base, what));
    try {
      const std::string report =
          flashadc::to_json(flashadc::run_campaign(config));
      EXPECT_EQ(report, base.report) << "mutant " << m << ": " << what;
      identical += report == base.report ? 1 : 0;
    } catch (const util::InvalidInputError&) {
      ++rejected;
    } catch (const util::ShardError&) {
      ++rejected;
    }
  }
  std::printf("%d mutants: %d resumed to the reference report, %d refused\n",
              count, identical, rejected);
}

TEST(JournalFuzz, ByteFlipsResumeExactlyOrThrow) {
  expect_mutants_resume_exactly_or_throw(
      600, 1, [](util::Rng& rng, const MutationBase& base, std::string& what) {
        std::string mutant = base.text;
        const std::size_t at = rng.below(mutant.size());
        mutant[at] = static_cast<char>(mutant[at] ^ (1 + rng.below(255)));
        what = "flip byte " + std::to_string(at);
        return mutant;
      });
}

TEST(JournalFuzz, TruncationsResumeExactlyOrThrow) {
  expect_mutants_resume_exactly_or_throw(
      75, 2, [](util::Rng& rng, const MutationBase& base, std::string& what) {
        const std::size_t at = rng.below(base.text.size());
        what = "truncate at " + std::to_string(at);
        return base.text.substr(0, at);
      });
}

TEST(JournalFuzz, DuplicatedLinesResumeExactlyOrThrow) {
  expect_mutants_resume_exactly_or_throw(
      250, 3, [](util::Rng& rng, const MutationBase& base, std::string& what) {
        auto lines = base.lines;
        const std::size_t from = rng.below(lines.size());
        const std::size_t to = rng.below(lines.size() + 1);
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(to),
                     lines[from]);
        what = "duplicate line " + std::to_string(from) + " at " +
               std::to_string(to);
        return join_lines(lines);
      });
}

TEST(JournalFuzz, SwappedLinesResumeExactlyOrThrow) {
  expect_mutants_resume_exactly_or_throw(
      75, 4, [](util::Rng& rng, const MutationBase& base, std::string& what) {
        auto lines = base.lines;
        const std::size_t a = rng.below(lines.size());
        const std::size_t b = rng.below(lines.size());
        std::swap(lines[a], lines[b]);
        what = "swap lines " + std::to_string(a) + " and " + std::to_string(b);
        return join_lines(lines);
      });
}

}  // namespace
}  // namespace dot

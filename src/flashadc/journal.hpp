// Campaign-level checkpoint/resume journal and shard merging.
//
// A CampaignJournal wraps the crash-safe JSONL writer (util/journal)
// with the campaign's record schema:
//
//   {"type":"meta", ...}   one per journal: seed, defect budget, shard
//                          arguments, ... -- validated on resume so a
//                          journal is never replayed into a campaign it
//                          was not produced by;
//   {"type":"macro", ...}  per macro: sprinkling statistics needed to
//                          rebuild the report without re-sprinkling;
//   {"type":"class", ...}  per completed fault class: both evaluation
//                          passes (catastrophic / non-catastrophic)
//                          with every field the JSON report emits, plus
//                          the resilience bookkeeping (status, attempt
//                          count, failure diagnostic).
//
// Record order in the file is nondeterministic (classes complete in
// parallel); every consumer re-sorts (macros into canonical order,
// classes by index), so journal-derived reports are deterministic.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "flashadc/campaign.hpp"
#include "util/journal.hpp"

namespace dot::flashadc {

/// Decoded journal record for one completed fault class: both passes
/// (either may be absent -- a class without a non-catastrophic variant
/// records only the catastrophic one).
struct ClassRecord {
  std::size_t index = 0;
  std::optional<FaultOutcome> catastrophic;
  std::optional<FaultOutcome> noncatastrophic;
};

/// Thread-safe campaign journal: workers call record_class concurrently;
/// resumed outcomes are served from an in-memory index.
class CampaignJournal {
 public:
  /// Opens config.resilience.journal_path. With resilience.resume, an
  /// existing journal is replayed: its meta record must match the
  /// config (seed, defect budget, shard arguments, ...) or ShardError
  /// is thrown -- resuming a mismatched journal would silently corrupt
  /// the campaign. Without resume the journal starts fresh.
  explicit CampaignJournal(const CampaignConfig& config);

  /// Records one macro's sprinkling statistics. Idempotent across
  /// resume (a macro already journaled is not re-recorded).
  void record_macro(const MacroCampaignResult& result);

  /// Records one completed class (both passes).
  void record_class(const std::string& macro, std::size_t index,
                    const std::optional<FaultOutcome>& cat,
                    const std::optional<FaultOutcome>& noncat);

  /// Outcome restored from a resumed journal, or nullptr when the class
  /// still needs evaluation.
  const ClassRecord* completed(const std::string& macro,
                               std::size_t index) const;

  /// Number of classes restored from the resumed journal.
  std::size_t resumed_classes() const;

  /// Final checkpoint; throws on filesystem failure.
  void close();

 private:
  util::JournalWriter writer_;
  /// macro -> class index -> restored record (resume only; immutable
  /// after construction, so lookups need no lock).
  std::map<std::string, std::map<std::size_t, ClassRecord>> restored_;
  std::set<std::string> macros_recorded_;
  /// Streaming hook (ResilienceOptions::journal_observer); called with
  /// each fresh record line before the journal append.
  std::function<void(const std::string&)> observer_;
  std::mutex mutex_;
};

/// Merges the journals of a complete shard set (shard indices 0..N-1 of
/// the same campaign, in any order) into the global coverage
/// compilation. Also accepts a single unsharded journal. Throws
/// ShardError on an incomplete/duplicated shard set or on journals from
/// different campaigns.
GlobalResult merge_shard_journals(const std::vector<std::string>& paths);

}  // namespace dot::flashadc

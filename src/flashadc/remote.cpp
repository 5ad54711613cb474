#include "flashadc/remote.hpp"

#include <fstream>

#include "flashadc/journal.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace dot::flashadc {
namespace {

void seed_shard_journal(const std::string& path, const std::string& meta_line,
                        const std::vector<std::string>& completed) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw util::IoError("cannot write shard journal: " + path);
  out << meta_line << "\n";
  for (const auto& line : completed) out << line << "\n";
  out.close();
  if (!out) throw util::IoError("short write seeding shard journal: " + path);
}

}  // namespace

void fill_dispatcher_identity(const CampaignConfig& config,
                              dispatch::DispatcherConfig& out) {
  out.meta = campaign_meta_record(config);
  out.validate = campaign_identity_mismatch;
  out.expected_macros = expected_macros(config);
  out.max_classes = config.max_classes;
}

dispatch::ShardRunner make_campaign_runner(const CampaignConfig& config,
                                           const std::string& journal_dir,
                                           std::size_t journal_sync) {
  CampaignConfig base = config;
  return [base, journal_dir, journal_sync](
             const dispatch::ShardAssignment& assignment,
             const dispatch::ShardSink& sink) {
    CampaignConfig shard_config = base;
    shard_config.resilience.shard_count = assignment.shard_count;
    shard_config.resilience.shard_index = assignment.shard;
    shard_config.resilience.journal_path =
        journal_dir + "/shard_" + std::to_string(assignment.shard) + ".jsonl";
    shard_config.resilience.resume = true;
    shard_config.resilience.checkpoint_block =
        journal_sync == 0 ? 1 : journal_sync;
    shard_config.resilience.journal_observer =
        [&sink](const std::string& line) { sink.emit(line); };

    // Replay what the dispatcher already holds for this shard: the
    // assignment's completed class lines become a resumed local journal,
    // so a re-issued shard evaluates only its journal tail and the
    // record stream stays byte-identical to the first issue.
    seed_shard_journal(shard_config.resilience.journal_path,
                       shard_meta_record(shard_config), assignment.completed);

    try {
      run_campaign(shard_config);
    } catch (const util::ParallelError& e) {
      // record_class fires the observer inside the evaluation pool; an
      // abandon raised there (dispatcher re-assigned or dropped the
      // shard) arrives wrapped. Unwrap it so run_worker sees the
      // AbandonShard itself; every other evaluation failure stays a
      // ParallelError and is reported as shard_failed.
      if (e.original()) {
        try {
          std::rethrow_exception(e.original());
        } catch (const dispatch::AbandonShard&) {
          throw;
        } catch (...) {
          // Not an abandon: fall through to rethrow the wrapper.
        }
      }
      throw;
    }
  };
}

}  // namespace dot::flashadc
